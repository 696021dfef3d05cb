// Host-measured fuzzing benchmark driver.
//
//   hostbench_driver <workload> <seed> <seconds> <trace:0|1>
//
// Runs fixed-work fuzzing campaigns through the public campaign API
// (NyxFuzzer built from an explicit EngineConfig/FuzzerConfig, then Run) and
// prints one JSON object of raw measurements on stdout. hostbench/run.py
// builds this driver, turns the raw numbers into metrics and checks them.
//
// trace 0: campaigns with seeds derived from <seed> run one after another,
//          each stopping at a fixed exec budget, each preceded by a timed
//          zero-exec set-up, with the host time of every Run() recorded.
//          The first of them then run again in rounds while another round
//          fits in <seconds>; every repeat must reproduce its first run.
// trace 1: one campaign runs untimed for exact counts; its final corpus is
//          then replayed through fresh objects, alternately with a span
//          around each public call into a layer and without (the
//          difference is the tracing overhead).
//
// Both modes finish with a sampled divergence audit of the final corpora.
// Everything is single-threaded in this process.

#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/fuzz/fuzzer.h"
#include "src/spec/analyze.h"
#include "src/spec/verify.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

struct Workload {
  const char* name;
  const char* target;
  PolicyMode policy;
  bool fault_injection;
};

// Why each workload exists: BENCHMARK.json and hostbench/predictions.json.
constexpr Workload kWorkloads[] = {
    {"ftp-root", "lightftp", PolicyMode::kNone, false},
    {"ftp-incremental", "lightftp", PolicyMode::kAggressive, false},
    {"sip-faults", "kamailio", PolicyMode::kNone, true},
};

// The exec budget is part of each workload's definition: inputs grow as a
// campaign goes on, so per-exec cost depends on how far it runs.
constexpr uint64_t kExecBudget = 5000;
// Distinct campaigns per run. Their medians, not one campaign, are the
// run's figures: execs per virtual second differ by about 14% (coefficient
// of variation) across campaign seeds, so a run needs many campaigns to be
// steady.
constexpr size_t kCampaigns = 64;
// The first kTimedCampaigns of them run again in rounds; round 0 is their
// warm-up and later rounds are timed. Host rates differ by only 2-3%
// across campaigns, so few campaigns and many rounds are steadier than the
// reverse.
constexpr size_t kTimedCampaigns = 16;
// Rounds per run at the least, round 0 included.
constexpr size_t kMinRounds = 3;
// Reference loop (ReferenceLoopS): pages write-protected and written per
// repetition, and timed repetitions after one untimed warm-up.
constexpr size_t kReferencePages = 64;
constexpr size_t kReferenceReps = 20;
constexpr size_t kGuestPages = 1024;  // 4 MiB, the size every campaign uses
constexpr size_t kDiskSectors = 512;
constexpr size_t kSnapshotDepth = 1;
constexpr TrackingMode kTracking = TrackingMode::kMprotect;
// Set out of reach: a campaign must stop on its exec budget. Reaching
// either limit instead fails the benchmark with the limit's name.
constexpr double kVtimeBudgetS = 1e6;
constexpr double kWallCapS = 120.0;
constexpr size_t kAuditSamplesPerCampaign = 1;
constexpr size_t kTracedAuditSamples = 8;
// Trace pass: fuzz-loop replay length, replays per side (untraced and
// traced, alternating) and the per-call probe length.
constexpr size_t kReplaySchedules = 300;
constexpr size_t kReplayPasses = 4;
constexpr size_t kProbeIterations = 2000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

// ---- machine-speed reference ------------------------------------------------
//
// The machine's speed swings by 20-30% over seconds to minutes: other
// tenants of the host slow user and kernel time alike, and it shows as
// neither steal time nor lost CPU time. A fixed loop timed right after
// every campaign slows with it (a round's summed campaign time and summed
// reference time correlate at 0.97 on a 4-vCPU VM), so run.py can report
// host times scaled to a fixed reference speed. The loop is the benchmark's
// own code, not the repository's, so no change to the program moves it. It
// uses the same kernel path as the mprotect dirty tracker: write-protect a
// region, then take one write fault per page and re-open that page.

char* g_reference_area = nullptr;

void ReferenceFault(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
  const auto base = reinterpret_cast<uintptr_t>(g_reference_area);
  if (addr < base || addr >= base + kReferencePages * kPageSize) {
    signal(SIGSEGV, SIG_DFL);  // not ours: re-fault and die
    return;
  }
  mprotect(reinterpret_cast<void*>(addr & ~uintptr_t{kPageSize - 1}), kPageSize,
           PROT_READ | PROT_WRITE);
}

// Seconds of kReferenceReps repetitions, after one untimed warm-up.
double ReferenceLoopS() {
  if (g_reference_area == nullptr) {
    void* area = mmap(nullptr, kReferencePages * kPageSize, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (area == MAP_FAILED) {
      perror("mmap");
      abort();
    }
    g_reference_area = static_cast<char*>(area);
  }
  // The program's own SIGSEGV handler is put back afterwards.
  struct sigaction ours = {};
  struct sigaction theirs = {};
  ours.sa_sigaction = ReferenceFault;
  ours.sa_flags = SA_SIGINFO;
  sigemptyset(&ours.sa_mask);
  sigaction(SIGSEGV, &ours, &theirs);
  double t0 = 0;
  for (size_t rep = 0; rep <= kReferenceReps; rep++) {
    if (rep == 1) {
      t0 = NowS();
    }
    mprotect(g_reference_area, kReferencePages * kPageSize, PROT_READ);
    for (size_t p = 0; p < kReferencePages; p++) {
      volatile char* byte = g_reference_area + p * kPageSize;
      *byte = static_cast<char>(*byte + 1);
    }
  }
  const double dt = NowS() - t0;
  sigaction(SIGSEGV, &theirs, nullptr);
  return dt;
}


[[noreturn]] void Die(const std::string& msg) {
  fprintf(stderr, "hostbench_driver: %s\n", msg.c_str());
  exit(2);
}

// ---- configuration ---------------------------------------------------------

EngineConfig MakeEngineConfig(uint64_t seed, bool audit) {
  EngineConfig c;
  c.vm.mem_pages = kGuestPages;
  c.vm.disk_sectors = kDiskSectors;
  c.vm.tracking = kTracking;
  c.vm.fast_device_reset = true;
  c.vm.dirty_ring_capacity = kDirtyRingCapacity;
  c.vm.snapshot_depth = kSnapshotDepth;
  c.asan = false;
  c.seed = seed;
  c.audit = audit;
  return c;
}

FuzzerConfig MakeFuzzerConfig(const Workload& w, uint64_t seed) {
  FuzzerConfig c;
  c.policy = w.policy;
  c.iterations_per_schedule = kIterationsPerSchedule;
  c.seed = seed;
  c.frontier = nullptr;
  c.fault_injection = w.fault_injection;
  c.analyze_check = false;
  return c;
}

CampaignLimits MakeLimits(uint64_t max_execs) {
  CampaignLimits l;
  l.vtime_seconds = kVtimeBudgetS;
  l.max_execs = max_execs;
  l.wall_seconds = kWallCapS;
  l.stop_on_crash = false;
  l.ijon_goal = 0;
  return l;
}

TargetRegistration Registration(const Workload& w) {
  auto reg = FindTarget(w.target);
  if (!reg.has_value()) {
    Die(std::string("unknown target ") + w.target);
  }
  return *reg;
}

// Campaign seeds of a run: disjoint across run seeds below 1000 campaigns.
uint64_t CampaignSeed(uint64_t run_seed, size_t i) { return run_seed * 1000 + i + 1; }

// ---- campaigns ---------------------------------------------------------------

struct CampaignRecord {
  uint64_t seed = 0;
  CampaignResult result;
  VmStats vm;
  size_t seed_entries = 0;  // corpus entries before Run: the admitted seeds
  std::vector<double> host_s;   // host seconds of Run(), one per round
  std::vector<double> ref_s;    // ReferenceLoopS() right after Run(), one per round
  std::vector<double> setup_s;  // zero-exec set-up seconds, one per round
  std::string stop_reason;
  TrackingMode requested = kTracking;
  TrackingMode effective = kTracking;
  std::vector<Program> kept;  // sample (or all) of the final corpus
};

const char* StopReason(const CampaignResult& r, const CampaignLimits& limits, double host_s) {
  if (r.execs == limits.max_execs) {
    return "exec-budget";
  }
  if (r.vtime_seconds >= limits.vtime_seconds) {
    return "vtime-budget";
  }
  if (host_s >= limits.wall_seconds) {
    return "wall-cap";
  }
  return "unknown";
}

// One campaign's objects, built as a user of the campaign API builds them:
// target registration, spec, seeds, then NyxFuzzer. The fuzzer refers to
// `spec`, so a Campaign stays where it was built.
struct Campaign {
  Campaign(const Workload& w, uint64_t seed)
      : reg(Registration(w)),
        spec(reg.make_spec()),
        fuzzer(MakeEngineConfig(seed, false), reg.factory, spec, MakeFuzzerConfig(w, seed)) {
    for (Program& s : reg.make_seeds(spec)) {
      fuzzer.AddSeed(std::move(s));
    }
  }
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  TargetRegistration reg;
  Spec spec;
  NyxFuzzer fuzzer;
};

// Runs one fixed-budget campaign; keeps `keep` entries of its final corpus
// (all of them when keep >= the corpus size).
CampaignRecord RunCampaign(const Workload& w, uint64_t seed, size_t keep) {
  Campaign campaign(w, seed);
  NyxFuzzer& fuzzer = campaign.fuzzer;
  CampaignRecord rec;
  rec.seed = seed;
  rec.seed_entries = fuzzer.corpus().size();
  const CampaignLimits limits = MakeLimits(kExecBudget);
  const double t0 = NowS();
  rec.result = fuzzer.Run(limits);
  rec.host_s.push_back(NowS() - t0);
  rec.ref_s.push_back(ReferenceLoopS());
  rec.stop_reason = StopReason(rec.result, limits, rec.host_s.back());
  rec.vm = fuzzer.engine().vm_stats();
  rec.requested = fuzzer.engine().vm().mem().requested_mode();
  rec.effective = fuzzer.engine().vm().mem().mode();
  const size_t n = fuzzer.corpus().size();
  if (keep >= n) {
    for (size_t i = 0; i < n; i++) {
      rec.kept.push_back(fuzzer.corpus().entry(i).program);
    }
  } else {
    Rng pick(seed ^ 0x61756469746f72ull);
    for (size_t i = 0; i < keep; i++) {
      rec.kept.push_back(fuzzer.corpus().entry(pick.Below(n)).program);
    }
  }
  return rec;
}

// Everything a repeated campaign must reproduce exactly.
std::string Mismatch(const CampaignRecord& a, const CampaignRecord& b) {
  const CampaignResult& x = a.result;
  const CampaignResult& y = b.result;
  std::string why;
  auto field = [&](const char* name, bool same) {
    if (!same) {
      why += std::string(why.empty() ? "" : ", ") + name;
    }
  };
  field("execs", x.execs == y.execs);
  field("branch_coverage", x.branch_coverage == y.branch_coverage);
  field("edge_coverage", x.edge_coverage == y.edge_coverage);
  field("corpus_size", x.corpus_size == y.corpus_size);
  field("vtime_seconds", x.vtime_seconds == y.vtime_seconds);
  return why;
}

// Zero-exec campaign: target/spec/seed construction, NyxFuzzer
// construction and Boot (the root snapshot).
double SetupOnce(const Workload& w, uint64_t seed, std::vector<std::string>& failures) {
  const double t0 = NowS();
  Campaign campaign(w, seed);
  const CampaignResult r = campaign.fuzzer.Run(MakeLimits(0));
  const double dt = NowS() - t0;
  if (r.execs != 0) {
    failures.push_back("zero-exec set-up campaign ran " + std::to_string(r.execs) + " execs");
  }
  return dt;
}

// ---- divergence audit ------------------------------------------------------

struct AuditTally {
  uint64_t programs = 0;
  uint64_t execs = 0;
  uint64_t divergences = 0;
};

// Replays `programs` through an engine built with EngineConfig::audit. On
// workloads that use incremental snapshots each program also runs with a
// marker, once creating the snapshot and once resuming from it.
void Audit(const Workload& w, uint64_t seed, const std::vector<Program>& programs,
           AuditTally& tally) {
  const TargetRegistration reg = Registration(w);
  const Spec spec = reg.make_spec();
  NyxEngine engine(MakeEngineConfig(seed, true), reg.factory, spec);
  engine.Boot();
  CoverageMap cov;
  auto run = [&](const Program& p) {
    cov.Reset();
    engine.Run(p, cov);
    tally.execs++;
  };
  for (const Program& p : programs) {
    tally.programs++;
    engine.DropIncremental();
    run(p);
    const size_t packets = p.PacketOpIndices(spec).size();
    if (w.policy != PolicyMode::kNone && packets >= 2) {
      Program marked = p;
      marked.InsertSnapshotAfterPacket(spec, packets / 2 - 1);
      engine.DropIncremental();
      run(marked);
      run(marked);
    }
  }
  tally.divergences += engine.auditor()->stats().divergences;
}

// ---- spans -------------------------------------------------------------------

enum SpanName : uint8_t {
  kExec,
  kMutate,
  kRunRoot,
  kRunCreate,
  kRunResume,
  kCoverageMerge,
  kCorpusAdd,
  kCorpusPick,
  kPolicyDecide,
  kProbe,
  kRestoreRoot,
  kNetSerialize,
  kNetDeserialize,
  kOpsHash,
  kNormalHash,
  kVerify,
  kSpanNameCount,
};

constexpr const char* kSpanNames[kSpanNameCount] = {
    "exec",
    "fuzz.mutate",
    "fuzz.engine_run_root",
    "fuzz.engine_run_create",
    "fuzz.engine_run_resume",
    "coverage.merge",
    "corpus.add",
    "corpus.pick",
    "policy.decide",
    "probe",
    "vm.restore_root",
    "netemu.serialize",
    "netemu.deserialize",
    "spec.ops_hash",
    "spec.normal_hash",
    "spec.verify",
};

struct Span {
  uint8_t name;
  uint32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

// In-memory span recorder; written out when the driver ends. With
// recording off every call is a no-op, which is the untraced replay.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit SpanLog(bool recording) : recording_(recording) {
    if (recording_) {
      spans_.reserve(1 << 20);
    }
  }

  uint32_t Open(SpanName name, uint32_t parent = kNoParent) {
    if (!recording_) {
      return kNoParent;
    }
    spans_.push_back({name, parent, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  void Close(uint32_t id) {
    if (recording_) {
      spans_[id].end_ns = NowNs();
    }
  }

  // Engine runs are named by what they did, known only afterwards.
  void Close(uint32_t id, SpanName name) {
    if (recording_) {
      spans_[id].end_ns = NowNs();
      spans_[id].name = name;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool recording_;
  std::vector<Span> spans_;
};

// One fuzz-loop replay of `corpus` with fresh engine, corpus, mutator,
// policy and coverage objects, following NyxFuzzer::Run's schedule shape.
// Returns host seconds of the loop (corpus admission included).
double ReplayFuzzLoop(const Workload& w, uint64_t seed, const std::vector<Program>& corpus_in,
                      SpanLog& log) {
  const TargetRegistration reg = Registration(w);
  const Spec spec = reg.make_spec();
  NyxEngine engine(MakeEngineConfig(seed, false), reg.factory, spec);
  engine.Boot();
  Corpus corpus(&spec);
  Mutator mutator(spec, seed ^ 0x6d757461746f72ull, /*dictionary=*/true, w.fault_injection);
  SnapshotPolicy policy(w.policy, seed ^ 0x706f6c696379ull);
  GlobalCoverage global;
  CoverageMap trace;
  Rng rng(seed);

  const double t0 = NowS();
  for (const Program& p : corpus_in) {
    const uint32_t s = log.Open(kCorpusAdd);
    corpus.Add(p, 0, p.PacketOpIndices(spec).size(), 0.0);
    log.Close(s);
  }
  bool found = true;
  for (size_t sched = 0; sched < kReplaySchedules; sched++) {
    uint32_t s = log.Open(kCorpusPick);
    CorpusEntry& entry = corpus.Pick(rng);
    log.Close(s);
    s = log.Open(kPolicyDecide);
    const PlacementDecision decision = policy.Decide(entry.packet_count, entry.cursor, found);
    log.Close(s);
    found = false;
    engine.DropIncremental();

    const auto base_packets = entry.program.PacketOpIndices(spec);
    size_t first_mutable_op = 0;
    if (decision.use_incremental && decision.packet_index < base_packets.size()) {
      first_mutable_op = base_packets[decision.packet_index] + 1;
    }
    const std::vector<const Program*> donors = corpus.Donors();
    const Program base = entry.program;
    for (uint64_t iter = 0; iter < kIterationsPerSchedule; iter++) {
      const uint32_t exec = log.Open(kExec);
      const bool full_range =
          decision.use_incremental && rng.Chance(1, 4) && first_mutable_op > 0;
      Program mutated = base;
      s = log.Open(kMutate, exec);
      mutator.Mutate(mutated, donors, full_range ? 0 : first_mutable_op);
      if (decision.use_incremental && !full_range) {
        mutated.InsertSnapshotAfterPacket(spec, decision.packet_index);
      }
      log.Close(s);
      trace.Reset();
      s = log.Open(kRunRoot, exec);
      const ExecResult r = engine.Run(mutated, trace);
      log.Close(s, r.used_incremental ? kRunResume : r.created_incremental ? kRunCreate : kRunRoot);
      s = log.Open(kCoverageMerge, exec);
      if (global.MergeAndCheckNew(trace) && !r.crash.crashed) {
        found = true;
      }
      log.Close(s);
      log.Close(exec);
    }
  }
  return NowS() - t0;
}

// Per-call probes of the layers the fuzz loop reaches only inside
// NyxEngine::Run: after each dirtying exec from the root, the netemu state
// is serialized and deserialized and the VM reset to the root snapshot.
// Returns a digest of the hashes computed, printed so they stay observable.
uint64_t ProbeLayers(const Workload& w, uint64_t seed, const std::vector<Program>& corpus,
                 SpanLog& log) {
  const TargetRegistration reg = Registration(w);
  const Spec spec = reg.make_spec();
  NyxEngine engine(MakeEngineConfig(seed, false), reg.factory, spec);
  engine.Boot();
  CoverageMap cov;
  uint64_t digest = 0;
  for (size_t i = 0; i < kProbeIterations; i++) {
    const Program& p = corpus[i % corpus.size()];
    const uint32_t probe = log.Open(kProbe);
    cov.Reset();
    engine.Run(p, cov);
    uint32_t s = log.Open(kNetSerialize, probe);
    const Bytes blob = engine.net().Serialize();
    log.Close(s);
    s = log.Open(kNetDeserialize, probe);
    const bool ok = engine.net().Deserialize(blob);
    log.Close(s);
    if (!ok) {
      Die("netemu rejected its own serialized state");
    }
    s = log.Open(kRestoreRoot, probe);
    engine.vm().RestoreRoot();
    log.Close(s);
    s = log.Open(kOpsHash, probe);
    digest ^= p.OpsHash(p.ops.size());
    log.Close(s);
    s = log.Open(kNormalHash, probe);
    digest ^= spec::NormalHash(p, spec);
    log.Close(s);
    s = log.Open(kVerify, probe);
    digest ^= spec::Verify(p, spec).diags.size();
    log.Close(s);
    log.Close(probe);
  }
  return digest;
}

// ---- JSON output -----------------------------------------------------------

void PrintDoubles(const char* key, const std::vector<double>& v) {
  printf("\"%s\":[", key);
  for (size_t i = 0; i < v.size(); i++) {
    printf("%s%.9g", i ? "," : "", v[i]);
  }
  printf("]");
}

void PrintConfig(const Workload& w, uint64_t run_seed, const CampaignRecord& first,
                 size_t campaigns) {
  printf("\"config\":{\"workload\":\"%s\",\"target\":\"%s\",\"policy\":\"%s\","
         "\"fault_injection\":%s,\"guest_pages\":%zu,\"guest_mib\":%zu,"
         "\"snapshot_depth\":%zu,\"exec_budget\":%llu,\"campaigns\":%zu,\"seed\":%llu,"
         "\"first_campaign_seed\":%llu,\"requested_backend\":\"%s\","
         "\"effective_backend\":\"%s\",\"vtime_budget_s\":%g,\"wall_cap_s\":%g,"
         "\"iterations_per_schedule\":%llu,\"audit\":false,\"analyze_check\":false,"
         "\"threads\":1}",
         w.name, w.target, PolicyName(w.policy), w.fault_injection ? "true" : "false",
         kGuestPages, kGuestPages * kPageSize >> 20, kSnapshotDepth,
         static_cast<unsigned long long>(kExecBudget), campaigns,
         static_cast<unsigned long long>(run_seed),
         static_cast<unsigned long long>(first.seed), TrackingModeName(first.requested),
         TrackingModeName(first.effective), kVtimeBudgetS, kWallCapS,
         static_cast<unsigned long long>(kIterationsPerSchedule));
}

void PrintCampaign(const CampaignRecord& c) {
  const CampaignResult& r = c.result;
  printf("{\"seed\":%llu,\"execs\":%llu,\"vtime_s\":%.17g,\"execs_per_vsecond\":%.17g,"
         "\"branch_coverage\":%zu,\"edge_coverage\":%zu,\"corpus_size\":%zu,"
         "\"seed_entries\":%zu,\"soft_failures\":%llu,\"faults_injected\":%llu,"
         "\"semantic_dupes\":%llu,\"incremental_creates\":%llu,"
         "\"incremental_restores\":%llu,\"pages_restored\":%llu,"
         "\"pages_captured\":%llu,\"stop_reason\":\"%s\",",
         static_cast<unsigned long long>(c.seed), static_cast<unsigned long long>(r.execs),
         r.vtime_seconds, r.execs_per_vsecond, r.branch_coverage, r.edge_coverage,
         r.corpus_size, c.seed_entries, static_cast<unsigned long long>(r.contract_soft_failures),
         static_cast<unsigned long long>(r.faults_injected),
         static_cast<unsigned long long>(r.semantic_dupes),
         static_cast<unsigned long long>(c.vm.incremental_creates),
         static_cast<unsigned long long>(c.vm.incremental_restores),
         static_cast<unsigned long long>(c.vm.pages_restored),
         static_cast<unsigned long long>(c.vm.pages_captured), c.stop_reason.c_str());
  PrintDoubles("host_s", c.host_s);
  printf(",");
  PrintDoubles("ref_s", c.ref_s);
  printf(",");
  PrintDoubles("setup_s", c.setup_s);
  printf("}");
}

void PrintFailures(const std::vector<std::string>& failures) {
  printf("\"failures\":[");
  for (size_t i = 0; i < failures.size(); i++) {
    std::string s;
    for (char ch : failures[i]) {
      s += ch == '"' || ch == '\\' ? '\'' : ch;
    }
    printf("%s\"%s\"", i ? "," : "", s.c_str());
  }
  printf("]");
}

void PrintAudit(const AuditTally& a) {
  printf("\"audit\":{\"programs\":%llu,\"execs\":%llu,\"divergences\":%llu}",
         static_cast<unsigned long long>(a.programs), static_cast<unsigned long long>(a.execs),
         static_cast<unsigned long long>(a.divergences));
}

void PrintSpans(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  printf("\"span_names\":[");
  for (size_t i = 0; i < kSpanNameCount; i++) {
    printf("%s\"%s\"", i ? "," : "", kSpanNames[i]);
  }
  printf("],\"spans\":{\"name\":[");
  for (size_t i = 0; i < spans.size(); i++) {
    printf("%s%u", i ? "," : "", spans[i].name);
  }
  printf("],\"parent\":[");
  for (size_t i = 0; i < spans.size(); i++) {
    printf("%s%lld", i ? "," : "",
           spans[i].parent == SpanLog::kNoParent ? -1LL : static_cast<long long>(spans[i].parent));
  }
  printf("],\"start_ns\":[");
  for (size_t i = 0; i < spans.size(); i++) {
    printf("%s%lld", i ? "," : "", static_cast<long long>(spans[i].start_ns - base));
  }
  printf("],\"end_ns\":[");
  for (size_t i = 0; i < spans.size(); i++) {
    printf("%s%lld", i ? "," : "", static_cast<long long>(spans[i].end_ns - base));
  }
  printf("]}");
}

double PeakRssKib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

void CheckCampaign(const CampaignRecord& c, std::vector<std::string>& failures) {
  const std::string id = "campaign seed " + std::to_string(c.seed);
  if (c.stop_reason != "exec-budget") {
    failures.push_back(id + " stopped early: " + c.stop_reason + " after " +
                       std::to_string(c.result.execs) + " of " + std::to_string(kExecBudget) +
                       " execs");
  }
  if (c.requested != c.effective) {
    failures.push_back(id + ": dirty tracking fell back from " +
                       TrackingModeName(c.requested) + " to " + TrackingModeName(c.effective));
  }
}

// ---- modes -----------------------------------------------------------------

int RunMeasured(const Workload& w, uint64_t run_seed, double seconds) {
  std::vector<std::string> failures;
  std::vector<CampaignRecord> campaigns;
  const double t0 = NowS();
  // Round 0 runs every campaign once; later rounds repeat the timed ones,
  // in the same order, while another round fits in the measuring time (at
  // least kMinRounds in all). Every repeat must reproduce round 0 exactly.
  size_t rounds = 0;
  double round_s = 0;
  while (rounds < kMinRounds || NowS() - t0 + round_s <= seconds) {
    const double r0 = NowS();
    for (size_t i = 0; i < (rounds == 0 ? kCampaigns : kTimedCampaigns); i++) {
      const uint64_t seed = CampaignSeed(run_seed, i);
      const double setup = SetupOnce(w, seed, failures);
      if (rounds == 0) {
        campaigns.push_back(RunCampaign(w, seed, kAuditSamplesPerCampaign));
        CheckCampaign(campaigns.back(), failures);
        campaigns.back().setup_s.push_back(setup);
        continue;
      }
      CampaignRecord& first = campaigns[i];
      const CampaignRecord again = RunCampaign(w, seed, 0);
      const std::string why = Mismatch(first, again);
      if (!why.empty()) {
        failures.push_back("campaign seed " + std::to_string(seed) + " did not reproduce: " + why);
      }
      first.host_s.push_back(again.host_s.front());
      first.ref_s.push_back(again.ref_s.front());
      first.setup_s.push_back(setup);
    }
    round_s = NowS() - r0;
    rounds++;
  }
  const double peak_rss_kib = PeakRssKib();

  AuditTally audit;
  for (const CampaignRecord& c : campaigns) {
    Audit(w, c.seed, c.kept, audit);
  }

  printf("{");
  PrintConfig(w, run_seed, campaigns.front(), campaigns.size());
  printf(",");
  PrintFailures(failures);
  printf(",\"rounds\":%zu,\"timed_campaigns\":%zu,\"peak_rss_kib\":%.0f,", rounds,
         kTimedCampaigns, peak_rss_kib);
  PrintAudit(audit);
  printf(",\"campaigns\":[");
  for (size_t i = 0; i < campaigns.size(); i++) {
    printf("%s", i ? "," : "");
    PrintCampaign(campaigns[i]);
  }
  printf("]}\n");
  return 0;
}

int RunTraced(const Workload& w, uint64_t run_seed) {
  std::vector<std::string> failures;
  const uint64_t seed = CampaignSeed(run_seed, 0);
  CampaignRecord campaign = RunCampaign(w, seed, SIZE_MAX);
  CheckCampaign(campaign, failures);
  const CampaignRecord again = RunCampaign(w, seed, 0);
  const std::string why = Mismatch(campaign, again);
  campaign.host_s.push_back(again.host_s.front());
  campaign.ref_s.push_back(again.ref_s.front());
  if (!why.empty()) {
    failures.push_back("campaign seed " + std::to_string(seed) + " did not reproduce: " + why);
  }

  // Alternate untraced and traced replays; every traced pass's spans feed
  // the per-call figures.
  SpanLog off(false);
  SpanLog on(true);
  std::vector<double> off_s;
  std::vector<double> on_s;
  for (size_t pass = 0; pass < kReplayPasses; pass++) {
    off_s.push_back(ReplayFuzzLoop(w, seed, campaign.kept, off));
    on_s.push_back(ReplayFuzzLoop(w, seed, campaign.kept, on));
  }
  const uint64_t digest = ProbeLayers(w, seed, campaign.kept, on);

  AuditTally audit;
  std::vector<Program> sample;
  Rng pick(seed ^ 0x61756469746f72ull);
  for (size_t i = 0; i < kTracedAuditSamples; i++) {
    sample.push_back(campaign.kept[pick.Below(campaign.kept.size())]);
  }
  Audit(w, seed, sample, audit);

  printf("{");
  PrintConfig(w, run_seed, campaign, 1);
  printf(",");
  PrintFailures(failures);
  printf(",");
  PrintAudit(audit);
  printf(",\"campaign\":");
  PrintCampaign(campaign);
  printf(",\"replay\":{\"execs_per_pass\":%zu,\"probe_digest\":\"%016llx\",",
         kReplaySchedules * static_cast<size_t>(kIterationsPerSchedule),
         static_cast<unsigned long long>(digest));
  PrintDoubles("off_s", off_s);
  printf(",");
  PrintDoubles("on_s", on_s);
  printf("},");
  PrintSpans(on);
  printf("}\n");
  return 0;
}

}  // namespace
}  // namespace nyx

int main(int argc, char** argv) {
  if (argc != 5) {
    fprintf(stderr, "usage: %s <workload> <seed> <seconds> <trace:0|1>\n", argv[0]);
    return 2;
  }
  const std::string name = argv[1];
  const nyx::Workload* workload = nullptr;
  for (const nyx::Workload& w : nyx::kWorkloads) {
    if (name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    nyx::Die("unknown workload " + name);
  }
  const uint64_t seed = strtoull(argv[2], nullptr, 10);
  const double seconds = strtod(argv[3], nullptr);
  return std::string(argv[4]) == "1" ? nyx::RunTraced(*workload, seed)
                                     : nyx::RunMeasured(*workload, seed, seconds);
}
