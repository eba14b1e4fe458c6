#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/workload.hpp"
#include "reclaim/gauge.hpp"
#include "tm/config.hpp"
#include "util/barrier.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace hohtm::harness {

/// One point of the reclamation-footprint timeline: live objects (net of
/// the cell's baseline) `t_ms` milliseconds into the timed phase.
struct FootprintSample {
  double t_ms = 0.0;
  long long live = 0;
};

/// Aggregate over trials; the paper reports the mean of 5 trials and a
/// variance below 3% — cv_percent lets the harness print the same check.
/// `ops` counts the operations the workers completed over all trials'
/// timed phases. `counters` carries the TM/RR/HOH telemetry (commits,
/// aborts by cause, revocations, reservation losses) summed over the
/// same phases — the per-cause accounting that makes contention
/// attributable per bench cell rather than guessed from throughput dips.
///
/// `latency` merges the per-thread latency histograms (commit,
/// abort-to-retry, quiescence stall; util::Metrics) over the same scope.
/// Populated only in HOHTM_TRACE builds — all-zero otherwise, and the
/// CSV percentile columns print 0.
///
/// `footprint` is the live-object timeline of the *last* trial, sampled
/// every footprint_ms milliseconds (empty when 0). `live_peak` is the
/// maximum live-object count (net of each trial's baseline) observed
/// across all trials — from the sampler when it runs, and always from
/// the end-of-timed-phase snapshot.
struct CellResult {
  util::Summary mops;
  std::uint64_t ops = 0;
  tm::StatCounters counters;
  util::LatencyHistograms latency;
  std::vector<FootprintSample> footprint;
  long long live_peak = 0;
};

/// One trial's timed phase: the runner behind run_cell, kv::run_kv_cell
/// and bench/kv_loopback's network cell. Construct it before building
/// the subject (it snapshots the live-object baseline, so the prefill
/// counts toward live_peak), build and prefill, then run() the workers.
///
/// The interval is stamped by the workers themselves: each reads the
/// clock right after the start barrier and again after its last op, and
/// the phase spans the earliest start to the latest stop. No coordinator
/// clock is read, so a coordinator that is descheduled across the
/// barrier cannot shrink the interval of work it did not watch.
class TimedPhase {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TimedPhase(int footprint_ms = 0) noexcept
      : footprint_ms_(footprint_ms), live_baseline_(reclaim::Gauge::live()) {}

  /// Scope the telemetry to what follows: prefill commits (and any prior
  /// cell's revocations) must not pollute this cell's per-cause columns.
  /// Call it while no counting thread is alive. run() calls it unless
  /// the caller already has — kv_loopback scopes before kv::Service
  /// starts its workers, so service start-up counts and prefill does not.
  void scope_telemetry() noexcept {
    tm::Stats::reset();
    util::Metrics::reset();
    scoped_ = true;
  }

  /// Run `workers` threads and wait for them. Thread t calls
  /// `work(t, start)`: it sets up whatever must not be timed, calls
  /// `start()` exactly once (the barrier plus its start stamp), runs its
  /// ops, and returns how many it completed.
  ///
  /// The footprint sampler, when on, is a side thread reading the
  /// live-object gauge on a wall-clock cadence from its own barrier
  /// release. It waits on a condition variable with an absolute deadline
  /// rather than sleeping: shutdown interrupts the wait at once (no stale
  /// trailing sample, no up-to-one-period join stall), and between
  /// samples the thread is blocked instead of burning a CPU the workers
  /// need. Tests keep it off, so no test depends on timing.
  template <class Work>
  void run(int workers, Work&& work) {
    if (!scoped_) scope_telemetry();
    const auto n = static_cast<std::size_t>(workers);
    const bool sample = footprint_ms_ > 0;
    std::vector<Clock::time_point> starts(n);
    std::vector<Clock::time_point> stops(n);
    std::vector<std::uint64_t> done(n, 0);
    util::SpinBarrier barrier(n + (sample ? 1 : 0));
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        done[t] = work(static_cast<int>(t), [&] {
          barrier.arrive_and_wait();
          starts[t] = Clock::now();
        });
        stops[t] = Clock::now();
      });
    }
    std::mutex sampler_mu;
    std::condition_variable sampler_cv;
    bool stop_sampler = false;
    std::thread sampler;
    if (sample) {
      sampler = std::thread([&] {
        barrier.arrive_and_wait();
        const auto start = Clock::now();
        const auto period = std::chrono::milliseconds(footprint_ms_);
        auto deadline = start + period;
        std::unique_lock<std::mutex> lock(sampler_mu);
        for (;;) {
          const double t_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count();
          samples_.push_back(
              FootprintSample{t_ms, reclaim::Gauge::live() - live_baseline_});
          if (sampler_cv.wait_until(lock, deadline,
                                    [&] { return stop_sampler; }))
            return;
          deadline += period;
        }
      });
    }
    for (auto& th : threads) th.join();
    if (sampler.joinable()) {
      {
        std::lock_guard<std::mutex> lock(sampler_mu);
        stop_sampler = true;
      }
      sampler_cv.notify_one();
      sampler.join();
    }
    end_live_ = reclaim::Gauge::live() - live_baseline_;
    seconds_ = std::chrono::duration<double>(
                   *std::max_element(stops.begin(), stops.end()) -
                   *std::min_element(starts.begin(), starts.end()))
                   .count();
    for (std::uint64_t d : done) ops_ += d;
  }

  double seconds() const noexcept { return seconds_; }
  std::uint64_t ops() const noexcept { return ops_; }
  double mops() const noexcept {
    return static_cast<double>(ops_) / seconds_ / 1e6;
  }

  /// Add this trial's ops, telemetry and footprint to `cell`. Call once
  /// every thread that counts has stopped.
  void fold_into(CellResult& cell) {
    cell.ops += ops_;
    cell.counters.accumulate(tm::Stats::total());
    cell.latency.merge(util::Metrics::total());
    cell.live_peak = std::max(cell.live_peak, end_live_);
    for (const FootprintSample& s : samples_)
      cell.live_peak = std::max(cell.live_peak, s.live);
    if (!samples_.empty()) cell.footprint = std::move(samples_);
  }

 private:
  int footprint_ms_;
  long long live_baseline_;
  bool scoped_ = false;
  double seconds_ = 0.0;
  std::uint64_t ops_ = 0;
  long long end_live_ = 0;
  std::vector<FootprintSample> samples_;
};

/// Run `trials` timed phases and fold them into one cell. Each
/// `trial(index, phase)` builds and prefills its subject, calls
/// phase.run() once, and stops any thread it started; the telemetry is
/// read after it returns.
template <class Trial>
CellResult run_trials(int trials, int footprint_ms, Trial&& trial) {
  CellResult cell;
  std::vector<double> mops_samples;
  for (int i = 0; i < trials; ++i) {
    TimedPhase phase(footprint_ms);
    trial(i, phase);
    mops_samples.push_back(phase.mops());
    phase.fold_into(cell);
  }
  cell.mops = util::summarize(mops_samples);
  return cell;
}

/// Run `config.trials` trials of the standard mixed workload against a
/// freshly built set per trial.
///
/// SetFactory: () -> std::unique_ptr<Set>, with Set providing
/// insert/remove/contains(long). The set is pre-filled to 50% of the key
/// range before timing starts (as in the paper), and timed threads run
/// ops_per_thread operations each.
template <class SetFactory>
CellResult run_cell(const WorkloadConfig& config, SetFactory&& make_set) {
  return run_trials(config.trials, config.footprint_ms,
                    [&](int trial, TimedPhase& phase) {
    auto set = make_set();
    for (long key : prefill_keys(config)) set->insert(key);
    phase.run(config.threads, [&](int t, auto&& start) {
      util::Xoshiro256 rng(config.seed + 0x1000u * (trial + 1) + t);
      const long range = config.key_range();
      start();
      for (std::uint64_t i = 0; i < config.ops_per_thread; ++i) {
        const long key = static_cast<long>(rng.next_below(range));
        const int dice = static_cast<int>(rng.next_below(100));
        if (dice < config.lookup_pct) {
          set->contains(key);
        } else if ((dice - config.lookup_pct) % 2 == 0) {
          set->insert(key);
        } else {
          set->remove(key);
        }
      }
      return config.ops_per_thread;
    });
  });
}

}  // namespace hohtm::harness
