// KV extension — the sharded transactional store under the five YCSB
// mixes (A 50/50, B 95/5, C read-only, D read-latest/insert, E
// scan/insert), one panel per mix, with the single-transaction baseline
// (RrNull, unbounded window) against representative reservation
// algorithms. --workload=X restricts the run to one mix.
//
// Rows use the 32-column KV layout (emit_kv_row): the standard cell
// columns plus kv_hits,kv_misses,kv_migrations,kv_resizes and the scan
// triple kv_scans,kv_scan_windows,kv_scan_resumes, so the resize
// traffic the D mix generates and the cursor handovers the E mix
// exercises are attributable per series.
//
// Doubles as the check.sh smoke stage: --smoke runs a single 1-thread
// YCSB-C cell and exits nonzero unless throughput is positive and every
// node the store allocated was freed (reclaim::Gauge back to baseline
// after the store dies) — the precise-reclamation end-to-end check —
// then re-runs the cell unfused vs fused (Options::fusion_cap) and
// requires fusion to measurably cut commits per op without recording a
// single extra abort. --workload=E --smoke runs the range-scan smoke
// instead: every scan result must be sorted and duplicate-free in
// canonical (hash, key) order, and kv_scan_resumes must be nonzero
// under a resize forced mid-scan (docs/KV.md, "Range scans").
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kv/contention.hpp"
#include "kv/workload.hpp"
#include "core/rr.hpp"
#include "reclaim/watchdog.hpp"

namespace {

using hohtm::harness::BenchEnv;
using hohtm::kv::KvCellResult;
using hohtm::kv::KvWorkloadConfig;
using hohtm::kv::Mix;
using TM = hohtm::tm::Norec;
namespace kv = hohtm::kv;
namespace rr = hohtm::rr;

template <class RR>
std::unique_ptr<kv::Store<TM, RR>> make_store(int window,
                                              int fusion_cap = 0) {
  typename kv::Store<TM, RR>::Options opt;
  opt.window = window;
  opt.fusion_cap = fusion_cap;
  return std::make_unique<kv::Store<TM, RR>>(opt);
}

template <class RR>
void series(const std::string& panel, const char* name,
            KvWorkloadConfig config, const BenchEnv& env, int window,
            int fusion_cap = 0) {
  for (int threads : env.thread_counts) {
    config.threads = threads;
    config.ops_per_thread = env.ops_per_thread;
    config.trials = env.trials;
    config.footprint_ms = env.footprint_ms;
    const KvCellResult cell = hohtm::kv::run_kv_cell(
        config, [&] { return make_store<RR>(window, fusion_cap); });
    hohtm::harness::emit_kv_row("kv", panel, name, threads, cell.base,
                                cell.kv);
  }
}

void run_panel(const BenchEnv& env, Mix mix) {
  const std::string panel = kv::mix_name(mix);
  hohtm::harness::emit_panel_note("kv", panel);
  KvWorkloadConfig config;
  config.mix = mix;
  config.records = 2048;

  // Single-transaction baseline: no reservations, unbounded window.
  series<rr::RrNull<TM>>(panel, "HTM", config, env,
                         kv::Store<TM, rr::RrNull<TM>>::kUnbounded);
  series<rr::RrV<TM>>(panel, "RR-V", config, env, 16);
  // Same algorithm with the contention-gated fusion budget: quiet
  // threads merge adjacent windows (fused_windows column), contended
  // ones fall back to the small-window protocol (fusion_fallbacks).
  series<rr::RrV<TM>>(panel, "RR-V+fuse", config, env, 16,
                      /*fusion_cap=*/16);
  series<rr::RrXo<TM>>(panel, "RR-XO", config, env, 16);
  series<rr::RrFa<TM>>(panel, "RR-FA", config, env, 16);
}

/// Window-fusion smoke (PR 6 acceptance): the same low-contention
/// YCSB-C cell run unfused and then with a fusion budget. The table is
/// frozen at its initial size so chains are long enough that the
/// 4-node window actually hands over; fusion must then measurably cut
/// commits per op (boundary transactions elided), record fused windows
/// in tm::Stats, and add zero aborts (single-threaded: any abort would
/// be fusion's own fault).
int run_fusion_smoke() {
  KvWorkloadConfig config;
  config.mix = Mix::kC;
  config.records = 512;
  config.threads = 1;
  config.ops_per_thread = 2000;
  config.trials = 1;
  auto frozen_store = [&](int fusion_cap) {
    kv::Store<TM, rr::RrV<TM>>::Options opt;
    opt.window = 4;
    opt.max_log2_buckets = opt.log2_buckets;  // no growth: long chains
    opt.fusion_cap = fusion_cap;
    return std::make_unique<kv::Store<TM, rr::RrV<TM>>>(opt);
  };
  const KvCellResult unfused = hohtm::kv::run_kv_cell(
      config, [&] { return frozen_store(0); });
  hohtm::harness::emit_kv_row("kv", "fusion-smoke", "RR-V", 1,
                              unfused.base, unfused.kv);
  const KvCellResult fused = hohtm::kv::run_kv_cell(
      config, [&] { return frozen_store(16); });
  hohtm::harness::emit_kv_row("kv", "fusion-smoke", "RR-V+fuse", 1,
                              fused.base, fused.kv);
  const auto& uc = unfused.base.counters;
  const auto& fc = fused.base.counters;
  if (fc.commits >= uc.commits) {
    std::fprintf(stderr,
                 "kv fusion smoke: fused run committed %llu txs vs %llu "
                 "unfused — fusion elided nothing\n",
                 static_cast<unsigned long long>(fc.commits),
                 static_cast<unsigned long long>(uc.commits));
    return 1;
  }
  if (fc.fused_windows == 0) {
    std::fprintf(stderr, "kv fusion smoke: no fused windows recorded\n");
    return 1;
  }
  if (fc.aborts > uc.aborts) {
    std::fprintf(stderr,
                 "kv fusion smoke: fusion added aborts (%llu vs %llu)\n",
                 static_cast<unsigned long long>(fc.aborts),
                 static_cast<unsigned long long>(uc.aborts));
    return 1;
  }
  std::printf(
      "# kv fusion smoke ok: %llu commits fused vs %llu unfused, "
      "%llu boundaries elided, aborts %llu vs %llu\n",
      static_cast<unsigned long long>(fc.commits),
      static_cast<unsigned long long>(uc.commits),
      static_cast<unsigned long long>(fc.fused_windows),
      static_cast<unsigned long long>(fc.aborts),
      static_cast<unsigned long long>(uc.aborts));
  return 0;
}

/// Attribution smoke (PR 7 acceptance): a contended zipfian YCSB-A cell
/// whose updates overwrite (and therefore revoke) hot keys out from
/// under concurrent hand-over-hand readers. Asserts the causal-
/// attribution invariant — every reservation loss lands in exactly one
/// aborter bucket and one site bucket, so the buckets sum to res_lost
/// *exactly* — and that the contention heatmap names a hot cell.
int run_attribution_smoke() {
  hohtm::kv::ContentionMap::reset();
  KvWorkloadConfig config;
  config.mix = Mix::kA;
  config.records = 256;
  config.threads = 4;
  config.ops_per_thread = 4000;
  config.trials = 1;
  // Window of 4 on a frozen single-shard, single-bucket table: every op
  // traverses one long chain through many handovers, so overwrites
  // actually revoke parked positions.
  auto contended_store = [&] {
    kv::Store<TM, rr::RrV<TM>>::Options opt;
    opt.log2_shards = 0;
    opt.log2_buckets = 0;
    opt.max_log2_buckets = opt.log2_buckets;
    opt.window = 4;
    return std::make_unique<kv::Store<TM, rr::RrV<TM>>>(opt);
  };
  const KvCellResult cell = hohtm::kv::run_kv_cell(config, contended_store);
  hohtm::harness::emit_kv_row("kv", "attr-smoke", "RR-V", config.threads,
                              cell.base, cell.kv);
  const auto& c = cell.base.counters;
  const unsigned long long losses = c.reservation_losses;
  const unsigned long long attributed = c.attributed_losses();
  const unsigned long long unknown = c.unknown_losses();
  if (attributed + unknown != losses) {
    std::fprintf(stderr,
                 "kv attribution smoke: aborter buckets sum to %llu but "
                 "res_lost is %llu\n",
                 attributed + unknown, losses);
    return 1;
  }
  unsigned long long site_sum = 0;
  for (std::size_t i = 0; i < hohtm::tm::kRevokeSiteCount; ++i)
    site_sum += c.loss_by_site[i];
  if (site_sum != losses) {
    std::fprintf(stderr,
                 "kv attribution smoke: site buckets sum to %llu but "
                 "res_lost is %llu\n",
                 site_sum, losses);
    return 1;
  }
  const auto hot = hohtm::kv::ContentionMap::top(1);
  if (hot.empty() || hot[0].weight == 0) {
    std::fprintf(stderr, "kv attribution smoke: heatmap is empty\n");
    return 1;
  }
  std::printf(
      "# kv attribution smoke ok: %llu losses (%llu attributed, %llu "
      "unknown), hottest cell shard=%u cell=%u weight=%llu\n",
      losses, attributed, unknown, hot[0].shard, hot[0].cell,
      static_cast<unsigned long long>(hot[0].weight));
  return 0;
}

/// Watchdog smoke (PR 7 acceptance): park a thread *inside* a published
/// transaction window and drive Watchdog::check with explicit
/// timestamps — the second check must report the stall deterministically
/// (no sleeps, no wall-clock dependence).
int run_watchdog_smoke() {
  using hohtm::reclaim::Watchdog;
  Watchdog::reset_for_testing();
  std::atomic<int> entered{0};
  std::atomic<int> release{0};
  std::thread parked([&] {
    TM::atomically([&](auto&) {
      // begin() already published this thread's quiescence slot; block
      // mid-window until the checks below have run.
      entered.store(1, std::memory_order_release);
      entered.notify_all();
      release.wait(0);
    });
  });
  while (entered.load(std::memory_order_acquire) == 0) entered.wait(0);
  const std::uint64_t t0 = 1;  // explicit clock: deterministic detection
  Watchdog::check(t0);         // arm baselines
  const Watchdog::Report report =
      Watchdog::check(t0 + Watchdog::threshold_ns() + 1);
  release.store(1, std::memory_order_release);
  release.notify_all();
  parked.join();
  if (report.stalled_threads < 1 || Watchdog::stall_events() == 0) {
    std::fprintf(stderr,
                 "kv watchdog smoke: parked thread not reported (active=%d "
                 "stalled=%d events=%llu)\n",
                 report.active_threads, report.stalled_threads,
                 static_cast<unsigned long long>(Watchdog::stall_events()));
    return 1;
  }
  std::printf(
      "# kv watchdog smoke ok: %d active, %d stalled, %llu stall events\n",
      report.active_threads, report.stalled_threads,
      static_cast<unsigned long long>(Watchdog::stall_events()));
  return 0;
}

/// check.sh smoke: one small single-thread YCSB-C cell; asserts work got
/// done and that destroying the store returns the gauge to baseline.
int run_smoke() {
  const long long baseline = hohtm::reclaim::Gauge::live();
  KvWorkloadConfig config;
  config.mix = Mix::kC;
  config.records = 512;
  config.threads = 1;
  config.ops_per_thread = 2000;
  config.trials = 1;
  hohtm::harness::emit_kv_header("kv", "smoke: 1-thread YCSB-C, RR-V");
  const KvCellResult cell = hohtm::kv::run_kv_cell(
      config, [&] { return make_store<rr::RrV<TM>>(16); });
  hohtm::harness::emit_kv_row("kv", "smoke", "RR-V", 1, cell.base,
                              cell.kv);
  const long long leaked = hohtm::reclaim::Gauge::live() - baseline;
  if (cell.base.mops.mean <= 0.0) {
    std::fprintf(stderr, "kv smoke: zero throughput\n");
    return 1;
  }
  if (cell.kv.hits == 0) {
    std::fprintf(stderr, "kv smoke: no read ever hit\n");
    return 1;
  }
  if (leaked != 0) {
    std::fprintf(stderr, "kv smoke: %lld objects leaked past store teardown\n",
                 leaked);
    return 1;
  }
  std::printf("# kv smoke ok: %llu hits, %llu buckets migrated, 0 leaks\n",
              static_cast<unsigned long long>(cell.kv.hits),
              static_cast<unsigned long long>(cell.kv.migrations));
  if (int rc = run_fusion_smoke(); rc != 0) return rc;
  if (int rc = run_attribution_smoke(); rc != 0) return rc;
  return run_watchdog_smoke();
}

/// Canonical scan order: (hash_bytes(key), key), the total order every
/// scan result must be strictly ascending in (docs/KV.md, "Range
/// scans").
bool canon_less(const std::string& a, const std::string& b) {
  const std::uint64_t ha = kv::detail::hash_bytes(a);
  const std::uint64_t hb = kv::detail::hash_bytes(b);
  if (ha != hb) return ha < hb;
  return a < b;
}

/// Range-scan smoke (--workload=E --smoke, PR 8 acceptance). All
/// single-threaded and deterministic:
///  1. a bounded scan_from at a mid-canonical-order key must return
///     exactly the expected slice of the prefill, in order;
///  2. a whole-store scan whose visitor re-enters the store mid-scan
///     with a 512-key insert burst — forcing table grows underneath the
///     parked cursor — must stay strictly sorted and duplicate-free,
///     must still deliver every prefill key, must observe no phantoms,
///     and must record kv_scan_resumes > 0 (the reseeks really ran);
///  3. the store must tear down with zero leaked objects;
///  4. a YCSB-E cell through the harness must emit a CSV row whose scan
///     columns are live (kv_scans > 0, windows >= scans).
int run_scan_smoke() {
  using ScanStore = kv::Store<TM, rr::RrV<TM>>;
  hohtm::harness::emit_kv_header("kv", "smoke: YCSB-E range scans, RR-V");
  const long long baseline = hohtm::reclaim::Gauge::live();
  {
    ScanStore::Options opt;
    opt.window = 4;  // small windows: many handovers per bucket
    ScanStore store(opt);
    const std::size_t kPrefill = 256;
    std::vector<std::string> prefill;
    prefill.reserve(kPrefill);
    for (std::size_t r = 0; r < kPrefill; ++r) {
      prefill.push_back(kv::make_key(r));
      store.put(prefill.back(), kv::make_value(r, 0));
    }
    store.finish_migration();
    std::sort(prefill.begin(), prefill.end(), canon_less);

    // 1. Bounded scan_from: exactly the canonical slice.
    const std::size_t at = kPrefill / 2;
    const std::size_t want = 10;
    std::vector<std::string> slice;
    store.scan_from(prefill[at], want,
                    [&](const std::string& k, const std::string&) {
                      slice.push_back(k);
                    });
    if (slice.size() != want ||
        !std::equal(slice.begin(), slice.end(), prefill.begin() + at)) {
      std::fprintf(stderr,
                   "kv scan smoke: scan_from returned %zu keys, not the "
                   "expected canonical slice\n",
                   slice.size());
      return 1;
    }

    // 2. Full scan with a re-entrant visitor that grows the table
    //    mid-scan: the cursor handover must absorb both the visitor's
    //    reservation reuse and the resize.
    const std::uint64_t swaps_before = store.tables_swapped();
    const std::uint64_t resumes_before = store.scan_resumes();
    std::vector<std::string> seen;
    std::set<std::string> burst;
    store.scan(std::numeric_limits<std::size_t>::max(),
               [&](const std::string& k, const std::string&) {
                 seen.push_back(k);
                 if (seen.size() == 64 && burst.empty())
                   for (std::uint64_t r = 0; r < 512; ++r) {
                     const std::uint64_t rank = 100000 + r;
                     burst.insert(kv::make_key(rank));
                     store.put(kv::make_key(rank), kv::make_value(rank, 0));
                   }
               });
    for (std::size_t i = 1; i < seen.size(); ++i)
      if (!canon_less(seen[i - 1], seen[i])) {
        std::fprintf(stderr,
                     "kv scan smoke: result out of canonical order (or "
                     "duplicated) at index %zu\n",
                     i);
        return 1;
      }
    std::set<std::string> seen_set(seen.begin(), seen.end());
    for (const std::string& k : prefill)
      if (seen_set.count(k) == 0) {
        std::fprintf(stderr,
                     "kv scan smoke: prefill key missing from full scan\n");
        return 1;
      }
    for (const std::string& k : seen)
      if (burst.count(k) == 0 &&
          !std::binary_search(prefill.begin(), prefill.end(), k,
                              canon_less)) {
        std::fprintf(stderr, "kv scan smoke: phantom key in scan result\n");
        return 1;
      }
    if (store.tables_swapped() == swaps_before) {
      std::fprintf(stderr,
                   "kv scan smoke: the insert burst forced no resize — the "
                   "scenario lost its adversary\n");
      return 1;
    }
    if (store.scan_resumes() == resumes_before) {
      std::fprintf(stderr,
                   "kv scan smoke: no cursor resume recorded under forced "
                   "resize\n");
      return 1;
    }
    std::printf(
        "# kv scan smoke ok: %zu keys in canonical order, %llu resumes, "
        "%llu tables swapped mid-scan\n",
        seen.size(),
        static_cast<unsigned long long>(store.scan_resumes() -
                                        resumes_before),
        static_cast<unsigned long long>(store.tables_swapped() -
                                        swaps_before));
  }
  const long long leaked = hohtm::reclaim::Gauge::live() - baseline;
  if (leaked != 0) {
    std::fprintf(stderr,
                 "kv scan smoke: %lld objects leaked past store teardown\n",
                 leaked);
    return 1;
  }

  // 4. One YCSB-E cell through the harness, so the CSV pipeline carries
  //    live scan columns end to end.
  KvWorkloadConfig config;
  config.mix = Mix::kE;
  config.records = 512;
  config.threads = 1;
  config.ops_per_thread = 500;
  config.trials = 1;
  config.max_scan_len = 32;
  const KvCellResult cell = hohtm::kv::run_kv_cell(
      config, [&] { return make_store<rr::RrV<TM>>(8); });
  hohtm::harness::emit_kv_row("kv", "scan-smoke", "RR-V", 1, cell.base,
                              cell.kv);
  if (cell.kv.scans == 0 || cell.kv.scan_windows < cell.kv.scans) {
    std::fprintf(stderr,
                 "kv scan smoke: E cell scan counters dead (scans=%llu "
                 "windows=%llu)\n",
                 static_cast<unsigned long long>(cell.kv.scans),
                 static_cast<unsigned long long>(cell.kv.scan_windows));
    return 1;
  }
  std::printf("# kv scan smoke ok: E cell ran %llu scans over %llu windows "
              "(%llu resumes)\n",
              static_cast<unsigned long long>(cell.kv.scans),
              static_cast<unsigned long long>(cell.kv.scan_windows),
              static_cast<unsigned long long>(cell.kv.scan_resumes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool have_mix = false;
  Mix only_mix = Mix::kA;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--workload=", 11) == 0 &&
               argv[i][11] != '\0' && argv[i][12] == '\0') {
      switch (argv[i][11]) {
        case 'A': only_mix = Mix::kA; break;
        case 'B': only_mix = Mix::kB; break;
        case 'C': only_mix = Mix::kC; break;
        case 'D': only_mix = Mix::kD; break;
        case 'E': only_mix = Mix::kE; break;
        default:
          std::fprintf(stderr, "unknown workload: %s (want A..E)\n", argv[i]);
          return 2;
      }
      have_mix = true;
    } else {
      std::fprintf(stderr, "usage: kv_ycsb [--workload=A..E] [--smoke]\n");
      return 2;
    }
  }
  if (smoke) {
    if (have_mix && only_mix == Mix::kE) return run_scan_smoke();
    return run_smoke();
  }
  const BenchEnv env = BenchEnv::from_environment();
  hohtm::harness::emit_kv_header(
      "kv", "sharded KV store: 2048 records, zipfian(0.99); panels = YCSB "
            "A/B/C/D/E mixes");
  if (have_mix) {
    run_panel(env, only_mix);
    return 0;
  }
  for (Mix mix : {Mix::kA, Mix::kB, Mix::kC, Mix::kD, Mix::kE})
    run_panel(env, mix);
  return 0;
}
