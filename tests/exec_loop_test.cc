// Cross-commit pins for the fuzz loop's hot path.
//
// GoldenCampaignTest pins the complete outcome of short fixed-budget
// campaigns (exec count, exact virtual time, coverage, corpus contents,
// snapshot and fault counters) to values recorded from an earlier build. A
// change to the exec loop that alters a single RNG draw or virtual
// nanosecond moves at least one of them. DeterministicWithSameSeed in
// fuzzer_test only compares two runs of the same build.
//
// AllocBudgetTest counts global operator new calls and bounds the
// steady-state heap allocations per exec of NyxFuzzer::Run: the difference
// between a long and a short campaign, divided by the difference in execs,
// so boot, seed dry-runs and set-up cancel out.
//
// The configurations are the three hostbench workloads (lightftp under
// policies none and aggressive, kamailio with fault injection) at the guest
// size, disk size and snapshot depth the benchmark uses.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/fuzz/fuzzer.h"
#include "src/targets/registry.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NYX_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NYX_ALLOC_COUNTING 0
#endif
#endif
#ifndef NYX_ALLOC_COUNTING
#define NYX_ALLOC_COUNTING 1
#endif

#if NYX_ALLOC_COUNTING
// Replacement global allocation functions: every form of operator new
// funnels into CountedAlloc. Sanitizer runtimes replace these themselves,
// so the counting build is skipped under them.
namespace {
NYX_RAW_METRIC_OK("counted inside operator new, which the telemetry layer itself calls");
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) {
    n = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  return p;
}

void* CountedAllocOrThrow(std::size_t n, std::size_t align) {
  void* p = CountedAlloc(n, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#endif  // NYX_ALLOC_COUNTING

namespace nyx {
namespace {

struct Workload {
  const char* name;
  const char* var;  // this table's identifier, for printing golden rows
  const char* target;
  PolicyMode policy;
  bool fault_injection;
};

constexpr Workload kFtpRoot = {"ftp-root", "kFtpRoot", "lightftp", PolicyMode::kNone, false};
constexpr Workload kFtpIncremental = {"ftp-incremental", "kFtpIncremental", "lightftp",
                                      PolicyMode::kAggressive, false};
constexpr Workload kSipFaults = {"sip-faults", "kSipFaults", "kamailio", PolicyMode::kNone,
                                 true};

// One campaign's objects; the fuzzer refers to `spec`, so it stays put.
struct Campaign {
  Campaign(const Workload& w, uint64_t seed)
      : reg(*FindTarget(w.target)),
        spec(reg.make_spec()),
        fuzzer(MakeEngineConfig(seed), reg.factory, spec, MakeFuzzerConfig(w, seed)) {
    for (Program& s : reg.make_seeds(spec)) {
      fuzzer.AddSeed(std::move(s));
    }
  }

  static EngineConfig MakeEngineConfig(uint64_t seed) {
    EngineConfig c;
    c.vm.mem_pages = 1024;
    c.vm.disk_sectors = 512;
    c.vm.fast_device_reset = true;
    c.vm.dirty_ring_capacity = kDirtyRingCapacity;
    c.vm.snapshot_depth = 1;
    c.asan = false;
    c.seed = seed;
    c.audit = false;
    return c;
  }

  static FuzzerConfig MakeFuzzerConfig(const Workload& w, uint64_t seed) {
    FuzzerConfig c;
    c.policy = w.policy;
    c.seed = seed;
    c.fault_injection = w.fault_injection;
    c.analyze_check = false;
    return c;
  }

  CampaignResult Run(uint64_t execs) {
    CampaignLimits limits;
    limits.vtime_seconds = 1e6;
    limits.max_execs = execs;
    limits.wall_seconds = 600.0;
    return fuzzer.Run(limits);
  }

  TargetRegistration reg;
  Spec spec;
  NyxFuzzer fuzzer;
};

// ---- golden campaign outcomes ----------------------------------------------

constexpr uint64_t kGoldenExecs = 2000;

struct Golden {
  const Workload* workload;
  uint64_t seed;
  double vtime_seconds;
  size_t branch_coverage;
  size_t edge_coverage;
  size_t corpus_size;
  uint64_t incremental_creates;
  uint64_t incremental_restores;
  uint64_t faults_injected;
  uint64_t corpus_digest;
};

// Order-sensitive digest of the final corpus: every entry's OpsHash.
uint64_t CorpusDigest(Corpus& corpus) {
  uint64_t d = 0;
  for (size_t i = 0; i < corpus.size(); i++) {
    const Program& p = corpus.entry(i).program;
    d = Mix64(d ^ p.OpsHash(p.ops.size()));
  }
  return d;
}

// Recorded before the exec loop stopped allocating (2,000 execs each). A
// failing case prints its actual row; replace a row only for a change that
// is meant to alter campaign behaviour, and say so in its description.
const Golden kGolden[] = {
    {&kFtpRoot, 1, 1.1515949360000002, 58, 74, 65, 0, 0, 0, 0x21c3933c73edd087ull},
    {&kFtpRoot, 2, 1.2040608720000001, 60, 76, 65, 0, 0, 0, 0x096bfcc50fa22b07ull},
    {&kFtpIncremental, 1, 0.854999968, 58, 73, 55, 346, 920, 0, 0xc73ea1ed8004c22cull},
    {&kFtpIncremental, 2, 0.898779616, 61, 78, 58, 388, 1139, 0, 0xbc5c90f308ff3c25ull},
    {&kSipFaults, 1, 4.8000868200000006, 68, 100, 92, 0, 0, 873, 0x7a458af88c2f83a4ull},
    {&kSipFaults, 2, 5.5538246280000001, 69, 100, 95, 0, 0, 848, 0x7afb5c08dd299c6aull},
};

class GoldenCampaignTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenCampaignTest, MatchesRecordedOutcome) {
  const Golden& g = GetParam();
  Campaign c(*g.workload, g.seed);
  const CampaignResult r = c.Run(kGoldenExecs);
  const uint64_t digest = CorpusDigest(c.fuzzer.corpus());
  char row[256];
  std::snprintf(row, sizeof(row),
                "{&%s, %llu, %.17g, %zu, %zu, %zu, %llu, %llu, %llu, 0x%016llxull}",
                g.workload->var, static_cast<unsigned long long>(g.seed), r.vtime_seconds,
                r.branch_coverage, r.edge_coverage, r.corpus_size,
                static_cast<unsigned long long>(r.incremental_creates),
                static_cast<unsigned long long>(r.incremental_restores),
                static_cast<unsigned long long>(r.faults_injected),
                static_cast<unsigned long long>(digest));
  SCOPED_TRACE(std::string("actual row: ") + row);
  EXPECT_EQ(r.execs, kGoldenExecs);
  EXPECT_EQ(r.vtime_seconds, g.vtime_seconds);
  EXPECT_EQ(r.branch_coverage, g.branch_coverage);
  EXPECT_EQ(r.edge_coverage, g.edge_coverage);
  EXPECT_EQ(r.corpus_size, g.corpus_size);
  EXPECT_EQ(r.incremental_creates, g.incremental_creates);
  EXPECT_EQ(r.incremental_restores, g.incremental_restores);
  EXPECT_EQ(r.faults_injected, g.faults_injected);
  EXPECT_EQ(digest, g.corpus_digest);
}

// "ftp-root" -> "ftp_root": gtest parameter names allow only [A-Za-z0-9_].
std::string Ident(const char* name) {
  std::string s = name;
  for (char& ch : s) {
    if (ch == '-') {
      ch = '_';
    }
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Workloads, GoldenCampaignTest, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return Ident(info.param.workload->name) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

// ---- steady-state allocations per exec -------------------------------------

struct Budget {
  const Workload* workload;
  double max_allocs_per_exec;
};

// A quarter of what the exec loop allocated per exec before it reused its
// buffers: about 91 / 96 / 43 on ftp-root / ftp-incremental / sip-faults
// (this test measured 87-90 / 91-95 / 42-43 there).
const Budget kBudgets[] = {
    {&kFtpRoot, 91.0 / 4},
    {&kFtpIncremental, 96.0 / 4},
    {&kSipFaults, 43.0 / 4},
};

constexpr uint64_t kShortExecs = 1000;
constexpr uint64_t kLongExecs = 4000;

class AllocBudgetTest : public ::testing::TestWithParam<Budget> {};

#if NYX_ALLOC_COUNTING
// Allocations made by a whole campaign of `execs` execs, set-up included.
uint64_t CampaignAllocs(const Workload& w, uint64_t seed, uint64_t execs, uint64_t* ran) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  Campaign c(w, seed);
  *ran = c.Run(execs).execs;
  return g_allocs.load(std::memory_order_relaxed) - before;
}
#endif

TEST_P(AllocBudgetTest, SteadyStateAllocationsPerExec) {
#if !NYX_ALLOC_COUNTING
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  const Budget& b = GetParam();
  for (uint64_t seed : {1, 2}) {
    uint64_t short_execs = 0;
    uint64_t long_execs = 0;
    const uint64_t short_allocs = CampaignAllocs(*b.workload, seed, kShortExecs, &short_execs);
    const uint64_t long_allocs = CampaignAllocs(*b.workload, seed, kLongExecs, &long_execs);
    ASSERT_EQ(short_execs, kShortExecs);
    ASSERT_EQ(long_execs, kLongExecs);
    ASSERT_GE(long_allocs, short_allocs);
    const double per_exec = static_cast<double>(long_allocs - short_allocs) /
                            static_cast<double>(long_execs - short_execs);
    std::printf("%s seed %llu: %.2f allocations per exec (budget %.2f)\n", b.workload->name,
                static_cast<unsigned long long>(seed), per_exec, b.max_allocs_per_exec);
    EXPECT_LE(per_exec, b.max_allocs_per_exec) << b.workload->name << " seed " << seed;
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(Workloads, AllocBudgetTest, ::testing::ValuesIn(kBudgets),
                         [](const ::testing::TestParamInfo<Budget>& info) {
                           return Ident(info.param.workload->name);
                         });

// ---- root snapshot size ----------------------------------------------------

// The root copies only the pages the guest ever wrote: a lightftp boot
// writes 7 of its 1,024 pages. A structural bound, not a timing: a root
// that copied the whole guest again would fail it.
TEST(RootSnapshotSizeTest, LightFtpBootCopiesFewPages) {
  Campaign c(kFtpRoot, 1);
  ASSERT_EQ(c.Run(0).execs, 0u);
  Vm& vm = c.fuzzer.engine().vm();
  const uint64_t root_pages = vm.stats().root_pages;
  EXPECT_GT(root_pages, 0u);
  EXPECT_LE(root_pages, 16u);
  for (uint32_t p = 0; p < vm.mem().num_pages(); p++) {
    ASSERT_EQ(0, memcmp(vm.root().PagePtr(p), vm.mem().base() + static_cast<size_t>(p) * kPageSize,
                        kPageSize))
        << "page " << p;
  }
}

}  // namespace
}  // namespace nyx
