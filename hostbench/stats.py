"""Arithmetic of the host benchmark.

Medians and quartiles are the ones Python's `statistics` module gives, so
the spread printed here is the spread a reader recomputing it gets.
Percentiles are nearest-rank and always travel with their sample count and
the number of samples beyond them. Tests: `python3 hostbench/test_stats.py`.
"""

import math
import statistics
from collections import namedtuple

Percentile = namedtuple("Percentile", "value n beyond")

# A percentile is reported as resolved only with this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, q):
    """Nearest-rank q-th percentile of `values` (0 < q <= 100).

    `beyond` counts the samples ranked above the returned one; the value is
    resolved when beyond >= MIN_BEYOND. No samples gives value 0 with n 0.
    """
    n = len(values)
    if n == 0:
        return Percentile(0.0, 0, 0)
    rank = max(1, math.ceil(q / 100.0 * n))
    return Percentile(sorted(values)[rank - 1], n, n - rank)


def resolved(p):
    return p.beyond >= MIN_BEYOND


def durations(spans, name_id):
    """Durations in microseconds of the spans named `name_id`."""
    return [
        (e - s) / 1000.0
        for n, s, e in zip(spans["name"], spans["start_ns"], spans["end_ns"])
        if n == name_id
    ]


def self_times(spans):
    """Per-span self time in ns: duration minus what its children cover.

    Spans come from one thread, so children of one parent do not overlap;
    each child's part is clipped to the parent's interval.
    """
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            covered = min(end[i], end[p]) - max(start[i], start[p])
            out[p] -= max(0, covered)
    return out


def scaled_median(times, reference_times, reference_nominal):
    """Median of `times`, each scaled to the reference machine speed.

    times[i] was measured next to reference_times[i], one run of a fixed
    reference loop. A machine slowed by a factor k stretches both, so
    times[i] × reference_nominal / reference_times[i] is the time the same
    work takes when the loop takes `reference_nominal`.
    """
    return median([t * reference_nominal / r for t, r in zip(times, reference_times, strict=True)])


def cost_account(per_call_us, calls_per_exec, host_us_per_exec):
    """Attributed µs per exec and the unattributed share of the exec.

    attributed = Σ per_call_us[k] × calls_per_exec[k] over the top-level
    calls of the fuzz loop; unattributed = 1 − attributed / host µs per exec.
    A negative share means the per-call figures over-account the exec.
    """
    attributed = sum(per_call_us[k] * calls_per_exec[k] for k in calls_per_exec)
    return attributed, 1.0 - attributed / host_us_per_exec
