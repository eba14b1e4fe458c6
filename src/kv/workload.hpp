#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/driver.hpp"
#include "harness/report.hpp"
#include "kv/store.hpp"
#include "util/zipfian.hpp"

namespace hohtm::kv {

/// The five YCSB mixes (Cooper et al., SoCC '10), over Zipfian key
/// popularity:
///   A: 50% read / 50% update     (session store)
///   B: 95% read /  5% update     (photo tagging)
///   C: 100% read                 (profile cache)
///   D: 95% read-latest / 5% insert (status updates)
///   E: 95% scan / 5% insert      (threaded conversations)
/// Updates go through put (replace-node), so A/B exercise the precise
/// node-swap reclamation; D grows the store, exercising migration; E's
/// range scans start at Zipfian-popular keys with uniform lengths up to
/// `max_scan_len`, exercising the cursor handover against the resizes
/// its inserts trigger.
enum class Mix : std::uint8_t { kA = 0, kB, kC, kD, kE };

inline const char* mix_name(Mix mix) noexcept {
  switch (mix) {
    case Mix::kA: return "ycsb-a";
    case Mix::kB: return "ycsb-b";
    case Mix::kC: return "ycsb-c";
    case Mix::kD: return "ycsb-d";
    case Mix::kE: return "ycsb-e";
  }
  return "?";
}

/// Percent of a mix's ops that read (get, or scan for E); the rest
/// update (A, B) or insert a new record (D, E).
inline std::uint64_t read_pct(Mix mix) noexcept {
  return mix == Mix::kA ? 50 : mix == Mix::kC ? 100 : 95;
}

/// One KV bench cell. `records` is both the prefill count and the
/// Zipfian domain; keys and values get deterministic variable lengths so
/// the flex-allocation path sees realistic size spread without any RNG
/// on the verification side.
struct KvWorkloadConfig {
  Mix mix = Mix::kC;
  std::size_t records = 2048;
  int threads = 2;
  std::uint64_t ops_per_thread = 20000;
  double theta = 0.99;
  int trials = 1;
  std::uint64_t seed = 42;
  int footprint_ms = 0;  // live-object sampling cadence; 0 = off
  std::size_t max_scan_len = 64;  // Mix E: uniform scan length in [1, max]
};

/// Key for popularity rank r: "user" + variable-length hex of the
/// scrambled rank (16..24 digits — always the full 64-bit value, plus
/// 0..8 leading zeros chosen by the scramble itself), so hot keys
/// scatter over the hash space and key lengths vary deterministically.
/// Emitting all 16 hex digits is what makes the scramble's
/// invertibility carry over to the keys: truncating to a prefix would
/// let distinct ranks collide and silently shrink the prefilled key
/// population (tests/kv/kv_workload_test.cpp pins uniqueness).
inline std::string make_key(std::uint64_t rank) {
  const std::uint64_t scrambled = util::scramble_rank(rank);
  const int digits = 16 + static_cast<int>(scrambled % 9);
  char buf[4 + 24 + 1];
  const int n =
      std::snprintf(buf, sizeof buf, "user%0*llx", digits,
                    static_cast<unsigned long long>(scrambled));
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Deterministic value for (rank, version): length 8..127 bytes of a
/// xoshiro stream seeded by both, so overwrites change the content and
/// a checker can recompute any expected value from the op history.
inline std::string make_value(std::uint64_t rank, std::uint64_t version) {
  util::Xoshiro256 rng(rank * 0x9E3779B97F4A7C15ULL + version);
  const std::size_t len = 8 + static_cast<std::size_t>(rng.next() % 120);
  std::string v(len, '\0');
  for (std::size_t i = 0; i < len; ++i)
    v[i] = static_cast<char>('a' + (rng.next() % 26));
  return v;
}

/// CellResult plus the KV-specific telemetry appended to the CSV row
/// (columns kv_hits..kv_scan_resumes; see harness::emit_kv_header).
struct KvCellResult {
  harness::CellResult base;
  harness::KvRowExtra kv;
};

/// Snapshot-and-subtract for the store's monotonic counters (buckets
/// migrated, tables installed, the range-scan triple): construct it once
/// the prefill has settled, and add_to() adds what the timed phase
/// contributed.
template <class S>
class StoreDelta {
 public:
  explicit StoreDelta(const S& store) : store_(store), at_(read()) {}

  void add_to(harness::KvRowExtra& out) const {
    const harness::KvRowExtra now = read();
    out.migrations += now.migrations - at_.migrations;
    out.resizes += now.resizes - at_.resizes;
    out.scans += now.scans - at_.scans;
    out.scan_windows += now.scan_windows - at_.scan_windows;
    out.scan_resumes += now.scan_resumes - at_.scan_resumes;
  }

 private:
  harness::KvRowExtra read() const {
    return {0, 0, store_.migrated_buckets(), store_.tables_swapped(),
            store_.scans(), store_.scan_windows(), store_.scan_resumes()};
  }

  const S& store_;
  harness::KvRowExtra at_;
};

/// KV mirror of harness::run_cell: per trial, build a fresh store via
/// `make_store()` (a callable returning something with put/get/del and
/// the migration accessors), prefill `records` keys, settle migration,
/// then run the mix from `threads` workers through harness::TimedPhase,
/// so timing, telemetry scoping and the footprint sampler are run_cell's.
template <class StoreFactory>
KvCellResult run_kv_cell(const KvWorkloadConfig& config,
                         StoreFactory&& make_store) {
  KvCellResult cell;
  cell.base = harness::run_trials(config.trials, config.footprint_ms,
                                  [&](int trial, harness::TimedPhase& phase) {
    auto store = make_store();
    for (std::size_t r = 0; r < config.records; ++r)
      store->put(make_key(r), make_value(r, 0));
    store->finish_migration();  // settle prefill grows before timing
    const StoreDelta delta(*store);
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    phase.run(config.threads, [&](int t, auto&& start) {
      util::Zipfian zipf(config.records, config.theta,
                         config.seed + 1000u * (trial + 1) + t);
      util::Xoshiro256 rng(config.seed + 0x2000u * (trial + 1) + t);
      std::string value;
      std::uint64_t my_hits = 0;
      std::uint64_t my_misses = 0;
      std::uint64_t inserted = 0;  // Mix D/E: this thread's new records
      const std::uint64_t insert_base =
          config.records + (static_cast<std::uint64_t>(t + 1) << 32);
      const bool grows = config.mix == Mix::kD || config.mix == Mix::kE;
      const auto ignore = [](const std::string&, const std::string&) {};
      start();
      for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
        const bool read = rng.next_below(100) < read_pct(config.mix);
        if (!read && grows) {
          store->put(make_key(insert_base + inserted),
                     make_value(insert_base + inserted, 0));
          ++inserted;
        } else if (!read) {
          const std::uint64_t rank = zipf.next();
          store->put(make_key(rank), make_value(rank, i + 1));
        } else if (config.mix == Mix::kE) {
          // Scan: Zipfian-popular start key, uniform length. The visitor
          // is a no-op — the cell measures the traversal and its cursor
          // handover, not the consumer.
          const std::size_t len = 1 + static_cast<std::size_t>(
              rng.next_below(config.max_scan_len));
          const bool hit =
              store->scan_from(make_key(zipf.next()), len, ignore) > 0;
          ++(hit ? my_hits : my_misses);
        } else {
          // Mix D reads latest: prefer this thread's most recent inserts,
          // Zipfian-skewed; fall back to the prefill while young.
          std::uint64_t rank = zipf.next();
          if (config.mix == Mix::kD && inserted > 0)
            rank = insert_base + (inserted - 1 - rank % inserted);
          ++(store->get(make_key(rank), value) ? my_hits : my_misses);
        }
      }
      hits.fetch_add(my_hits, std::memory_order_relaxed);
      misses.fetch_add(my_misses, std::memory_order_relaxed);
      return config.ops_per_thread;
    });
    cell.kv.hits += hits.load(std::memory_order_relaxed);
    cell.kv.misses += misses.load(std::memory_order_relaxed);
    delta.add_to(cell.kv);
  });
  return cell;
}

}  // namespace hohtm::kv
