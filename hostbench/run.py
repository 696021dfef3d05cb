#!/usr/bin/env python3
"""Host-measured fuzzing benchmark.

    python3 hostbench/run.py --workload ftp-root --seed 1 --seconds 20 --trace 0

Builds hostbench_driver (CMake, under $CARGO_TARGET_DIR or .bench_build),
runs fixed-work campaigns of one workload and prints the metrics, one per
line with unit, sample count and spread, then one JSON result object as the
last line. `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer ones. Workloads, metrics and the layer -> end-to-end predictions
are defined in hostbench/predictions.json.

Exit codes: 0 all checks passed; 1 a correctness, truncation or
expected-zero check failed (the result line says "correct": false);
2 refused configuration; 3 build or driver failure (no result line).
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

# Knobs that change what a campaign executes. The driver sets every engine
# and fuzzer setting explicitly, but these are read process-wide; a run with
# any of them set would not measure the configuration it reports.
REFUSED_ENV = (
    "NYX_TRACKER",
    "NYX_SNAPSHOT_DEPTH",
    "NYX_DIRTY_RING",
    "NYX_AUDIT",
    "NYX_ANALYZE_CHECK",
    "NYX_TELEMETRY",
    "NYX_TRACE",
)

# Median time of the driver's reference loop (ReferenceLoopS) on the 4-vCPU
# VM that defined the benchmark. Host times are reported scaled to the
# machine speed at which the loop takes this long; see README.md.
REFERENCE_S = 0.0065

DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

# Calls NyxFuzzer::Run makes between execs (the fuzz loop's top level);
# everything else the trace times is nested inside one of these.
FUZZ_LOOP_CALLS = (
    "fuzz.mutate",
    "fuzz.engine_run_root",
    "fuzz.engine_run_create",
    "fuzz.engine_run_resume",
    "coverage.merge",
    "corpus.add",
    "corpus.pick",
    "policy.decide",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    driver = build_dir / "hostbench_driver"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "hostbench_driver", "-j", jobs]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return driver


def metric(value, unit):
    return {"value": value, "unit": unit}


def expectation_failures(workload, counts, pred):
    out = []
    for name in pred["expect_zero"]:
        if counts[name] != 0:
            out.append(f"{name} is {counts[name]:.6g} on {workload}, expected 0")
    for name in pred["expect_nonzero"]:
        if counts[name] == 0:
            out.append(f"{name} is 0 on {workload}, expected > 0")
    return out


def config_failures(cfg, pred):
    want = {
        "target": pred["target"],
        "policy": pred["policy"],
        "fault_injection": pred["fault_injection"],
        "snapshot_depth": 1,
        "guest_mib": 4,
        "effective_backend": "mprotect",
    }
    return [f"config {k} is {cfg[k]!r}, expected {v!r}" for k, v in want.items() if cfg[k] != v]


def counts_of(campaigns):
    """Exact per-exec counts over campaigns (first run of each)."""
    execs = sum(c["execs"] for c in campaigns)
    creates = sum(c["incremental_creates"] for c in campaigns)
    restores = sum(c["incremental_restores"] for c in campaigns)
    admitted = sum(c["corpus_size"] - c["seed_entries"] for c in campaigns)
    dupes = sum(c["semantic_dupes"] for c in campaigns)
    return {
        "execs": execs,
        "fuzz.resume_ratio": restores / execs,
        "fuzz.failed_share": sum(c["soft_failures"] for c in campaigns) / execs,
        "vm.pages_restored_per_exec": sum(c["pages_restored"] for c in campaigns) / execs,
        "vm.pushes_per_exec": creates / execs,
        "vm.pages_captured_per_push": (
            sum(c["pages_captured"] for c in campaigns) / creates if creates else 0.0
        ),
        "netemu.faults_per_exec": sum(c["faults_injected"] for c in campaigns) / execs,
        "corpus.admissions_per_exec": admitted / execs,
        "corpus.dedup_hit_ratio": dupes / (admitted + dupes) if admitted + dupes else 0.0,
    }


def describe(name, values, unit):
    q1, q2, q3 = stats.quartiles(values)
    return f"{name}: {q2:.6g} {unit}  (n={len(values)}, q1={q1:.6g}, q3={q3:.6g})"


def end_to_end(raw, pred):
    camps = raw["campaigns"]
    timed = camps[: raw["timed_campaigns"]]
    units = {k: v["unit"] for k, v in pred["end_to_end"].items()}

    def scaled(c, key):
        # Round 0 is the warm-up; every later round is scaled by the
        # reference loop timed right after its campaign.
        return stats.scaled_median(c[key][1:], c["ref_s"][1:], REFERENCE_S)

    samples = {
        "host_execs_per_s": [c["execs"] / scaled(c, "host_s") for c in timed],
        "virtual_execs_per_s": [c["execs_per_vsecond"] for c in camps],
        "branch_coverage": [c["branch_coverage"] for c in camps],
        "edge_coverage": [c["edge_coverage"] for c in camps],
        "setup_s": [scaled(c, "setup_s") for c in timed],
    }
    out = {}
    for name, values in samples.items():
        print(describe(name, values, units[name]))
        out[name] = metric(stats.median(values), units[name])
    out["peak_rss_mb"] = metric(raw["peak_rss_kib"] / 1024.0, units["peak_rss_mb"])
    print(f"peak_rss_mb: {out['peak_rss_mb']['value']:.6g} MiB  (one process)")
    print(f"{len(camps)} campaigns; the first {len(timed)} timed over rounds 1-{raw['rounds'] - 1}, "
          f"each round scaled to a {REFERENCE_S * 1e3:g} ms reference loop")
    unscaled = [c["execs"] / stats.median(c["host_s"][1:]) for c in timed]
    refs = [r for c in timed for r in c["ref_s"][1:]]
    print("unscaled " + describe("host_execs_per_s", unscaled, units["host_execs_per_s"]))
    print(describe("reference loop", [r * 1e3 for r in refs], "ms"))
    return out


def per_layer(raw, pred, counts):
    spans = raw["spans"]
    ids = {n: i for i, n in enumerate(raw["span_names"])}
    units = {m["name"]: m["unit"] for m in pred["per_layer"]}
    dur = {n: stats.durations(spans, i) for n, i in ids.items()}
    out = {}

    def put(name, value, note=""):
        out[name] = metric(value, units[name])
        print(f"{name}: {value:.6g} {units[name]}{('  ' + note) if note else ''}")

    for name in units:
        for q in (50, 99):
            suffix = f"_us_p{q}"
            if name.endswith(suffix):
                p = stats.percentile(dur[name[: -len(suffix)]], q)
                flag = "" if p.n == 0 or stats.resolved(p) else ", UNRESOLVED"
                put(name, float(p.value), f"(n={p.n}, beyond={p.beyond}{flag})")
    for name in units:
        if name in counts:
            put(name, float(counts[name]), "(count)")

    p50 = {n: stats.percentile(v, 50).value for n, v in dur.items()}
    put(
        "targets.step_residual_us",
        p50["fuzz.engine_run_root"]
        - p50["vm.restore_root"]
        - p50["netemu.serialize"]
        - p50["netemu.deserialize"],
    )
    # Cost account of the replay: per-call means times the replay's own
    # calls per exec, against the untraced replay's host µs per exec.
    replay = raw["replay"]
    replay_execs = len(replay["on_s"]) * replay["execs_per_pass"]
    calls = {n: len(dur[n]) / replay_execs for n in FUZZ_LOOP_CALLS}
    mean_us = {n: (sum(dur[n]) / len(dur[n]) if dur[n] else 0.0) for n in FUZZ_LOOP_CALLS}
    host_us = stats.median(replay["off_s"]) / replay["execs_per_pass"] * 1e6
    attributed, share = stats.cost_account(mean_us, calls, host_us)
    put("unattributed_share", share, f"(attributed {attributed:.3f} of {host_us:.3f} us/exec)")
    camp = raw["campaign"]
    print(f"campaign host us/exec: {stats.median(camp['host_s']) / camp['execs'] * 1e6:.3f} "
          f"(n={len(camp['host_s'])})")
    off = stats.median(replay["off_s"])
    on = stats.median(replay["on_s"])
    put("trace.overhead_pct", (on - off) / off * 100.0, f"(replay {off:.4f} s -> {on:.4f} s)")

    exec_total = sum(dur["exec"])
    exec_self = sum(t for n, t in zip(spans["name"], stats.self_times(spans)) if n == ids["exec"])
    if exec_total:
        print(f"replay exec time outside child spans: {exec_self / 1000 / exec_total:.4f}")
    missing = set(units) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    refused = [k for k in REFUSED_ENV if k in os.environ]
    if refused:
        log(f"hostbench: refusing to run with {', '.join(refused)} set")
        return 2
    pred = json.loads((HERE / "predictions.json").read_text())
    if args.workload not in pred["workloads"]:
        log(f"hostbench: unknown workload {args.workload!r}; have {sorted(pred['workloads'])}")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("hostbench: --seed must be >= 0 and --seconds > 0")
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "hostbench"
    try:
        driver = build(build_dir)
        t0 = time.monotonic()
        proc = subprocess.run(
            [str(driver), args.workload, str(args.seed), str(args.seconds), str(args.trace)],
            stdout=subprocess.PIPE,
            timeout=DRIVER_TIMEOUT_S,
            check=True,
        )
    except (subprocess.SubprocessError, OSError) as e:
        log(f"hostbench: {e}")
        return 3
    raw = json.loads(proc.stdout)
    log(f"hostbench: driver finished in {time.monotonic() - t0:.1f} s")

    wpred = pred["workloads"][args.workload]
    cfg = raw["config"]
    print("config: " + json.dumps(cfg, sort_keys=True))
    camps = raw["campaigns"] if args.trace == 0 else [raw["campaign"]]
    counts = counts_of(camps)
    failures = list(raw["failures"])
    failures += config_failures(cfg, wpred)
    failures += expectation_failures(args.workload, counts, wpred)
    audit = raw["audit"]
    print(f"audit: {audit['programs']} corpus programs, {audit['execs']} audited execs, "
          f"{audit['divergences']} divergences")
    if audit["divergences"] != 0 or audit["programs"] == 0:
        failures.append(f"divergence audit: {audit['divergences']} divergences "
                        f"over {audit['programs']} programs")

    metrics = end_to_end(raw, pred) if args.trace == 0 else per_layer(raw, pred, counts)
    for f in failures:
        print(f"FAILED: {f}")
    result = {
        "correct": not failures,
        "attempted": counts["execs"],
        "failed": sum(c["soft_failures"] for c in camps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
