// Workload harness: prefill determinism, environment parsing, the
// worker-stamped timed phase, and the measurement drivers end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>

#include "core/rr.hpp"
#include "ds/sll_hoh.hpp"
#include "harness/driver.hpp"
#include "harness/workload.hpp"
#include "kv/workload.hpp"

namespace hohtm::harness {
namespace {

TEST(Workload, PrefillIsHalfTheRangeAndUnique) {
  WorkloadConfig config;
  config.key_bits = 8;
  const auto keys = prefill_keys(config);
  EXPECT_EQ(keys.size(), 128u);
  std::set<long> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  for (long k : keys) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 256);
  }
}

TEST(Workload, PrefillDeterministicPerSeed) {
  WorkloadConfig a;
  a.key_bits = 6;
  WorkloadConfig b = a;
  EXPECT_EQ(prefill_keys(a), prefill_keys(b));
  b.seed = 77;
  EXPECT_NE(prefill_keys(a), prefill_keys(b));
}

TEST(Workload, EnvironmentParsing) {
  setenv("HOH_BENCH_OPS", "123", 1);
  setenv("HOH_BENCH_TRIALS", "4", 1);
  setenv("HOH_BENCH_THREADS", "2,6", 1);
  setenv("HOH_BENCH_BIGBITS", "21", 1);
  const BenchEnv env = BenchEnv::from_environment();
  EXPECT_EQ(env.ops_per_thread, 123u);
  EXPECT_EQ(env.trials, 4);
  EXPECT_EQ(env.thread_counts, (std::vector<int>{2, 6}));
  EXPECT_EQ(env.big_key_bits, 21);
  unsetenv("HOH_BENCH_OPS");
  unsetenv("HOH_BENCH_TRIALS");
  unsetenv("HOH_BENCH_THREADS");
  unsetenv("HOH_BENCH_BIGBITS");
}

TEST(Workload, EnvironmentDefaults) {
  unsetenv("HOH_BENCH_OPS");
  unsetenv("HOH_BENCH_TRIALS");
  unsetenv("HOH_BENCH_THREADS");
  unsetenv("HOH_BENCH_BIGBITS");
  const BenchEnv env = BenchEnv::from_environment();
  EXPECT_GT(env.ops_per_thread, 0u);
  EXPECT_GE(env.trials, 1);
  EXPECT_FALSE(env.thread_counts.empty());
}

TEST(Driver, RunsTrialsAndReportsThroughput) {
  using TM = tm::Norec;
  using List = ds::SllHoh<TM, rr::RrV<TM>>;
  WorkloadConfig config;
  config.key_bits = 6;
  config.lookup_pct = 33;
  config.threads = 2;
  config.ops_per_thread = 2000;
  config.trials = 2;
  const CellResult cell =
      run_cell(config, [&] { return std::make_unique<List>(config.window); });
  EXPECT_EQ(cell.mops.n, 2u);
  EXPECT_EQ(cell.ops, 2u * 2u * 2000u);
  EXPECT_GT(cell.mops.mean, 0.0);
  EXPECT_GT(cell.mops.min, 0.0);
}

TEST(Driver, LookupOnlyMixDoesNotMutate) {
  using TM = tm::Norec;
  using List = ds::SllHoh<TM, rr::RrV<TM>>;
  WorkloadConfig config;
  config.key_bits = 6;
  config.lookup_pct = 100;
  config.threads = 2;
  config.ops_per_thread = 2000;
  config.trials = 1;
  List* witness = nullptr;
  std::size_t prefill_size = 0;
  run_cell(config, [&] {
    auto list = std::make_unique<List>(config.window);
    witness = list.get();
    for (long k : prefill_keys(config)) list->insert(k);
    prefill_size = list->size();
    // run_cell prefills again on the same instance; inserts of present
    // keys are no-ops, so the size stays put.
    return list;
  });
  (void)witness;
  EXPECT_EQ(prefill_size, 32u);
}

TEST(TimedPhase, SerialisedWorkersSpanBothLoops) {
  // Worker 1 starts its loop only once worker 0 has finished, so the
  // phase must cover both loops back to back: the case a coordinator
  // that stamps its own clock after the start barrier can miss.
  using Clock = TimedPhase::Clock;
  std::atomic<bool> first_done{false};
  Clock::duration loop[2] = {};
  TimedPhase phase;
  phase.run(2, [&](int t, auto&& start) {
    start();
    if (t == 1) first_done.wait(false, std::memory_order_acquire);
    const auto begin = Clock::now();
    util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 200000; ++i) sink = sink ^ rng.next();
    loop[t] = Clock::now() - begin;
    if (t == 0) {
      first_done.store(true, std::memory_order_release);
      first_done.notify_one();
    }
    return std::uint64_t{100};
  });
  EXPECT_EQ(phase.ops(), 200u);
  EXPECT_GE(phase.seconds(),
            std::chrono::duration<double>(loop[0] + loop[1]).count());
  EXPECT_GT(phase.mops(), 0.0);
}

TEST(KvDriver, ReadOnlyCellCountsEveryRead) {
  using TM = tm::Norec;
  using Store = kv::Store<TM, rr::RrV<TM>>;
  kv::KvWorkloadConfig config;
  config.mix = kv::Mix::kC;
  config.records = 256;
  config.threads = 1;
  config.ops_per_thread = 500;
  config.trials = 2;
  const kv::KvCellResult cell = kv::run_kv_cell(
      config, [] { return std::make_unique<Store>(Store::Options{}); });
  EXPECT_EQ(cell.kv.hits, 2u * config.ops_per_thread);
  EXPECT_EQ(cell.kv.misses, 0u);
  EXPECT_EQ(cell.kv.migrations, 0u);
  EXPECT_EQ(cell.base.ops, 2u * config.ops_per_thread);
  EXPECT_EQ(cell.base.mops.n, 2u);
  EXPECT_TRUE(std::isfinite(cell.base.mops.mean));
  EXPECT_GT(cell.base.mops.min, 0.0);
}

}  // namespace
}  // namespace hohtm::harness
