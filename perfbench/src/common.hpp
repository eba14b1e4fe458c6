#pragma once

// Measurement plumbing shared by the three workloads: worker-stamped
// rounds, log-linear latency histograms, in-memory span logs, and the
// process/host probes. Nothing here reaches into the library; layers are
// observed only through their public calls and counters.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// 64-bit FNV-1a, folded one word at a time (input digests).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Stream id for (seed, purpose, index): every generator gets its own.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t purpose,
                              std::uint64_t index) noexcept {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
                    index * 0x94D049BB133111EBULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Quantile with linear interpolation between order statistics.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Log-linear latency histogram: exact below 32 ns, then 32 buckets per
/// octave (under 3.2% relative width) up to 2^32 ns (4.3 s), where it
/// saturates. Quantiles interpolate by rank inside the bucket, so a
/// reading is not pinned to a bucket edge. At 3.5 KiB a round's
/// histogram keeps the benchmark's share of mem_peak_mib small.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kMaxBits = 32;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  Histogram() : counts_(kBuckets, 0) {}

  void add(std::uint64_t v) noexcept {
    ++counts_[index(std::min(v, (std::uint64_t{1} << kMaxBits) - 1))];
    ++total_;
  }
  void merge(const Histogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  std::uint64_t count() const noexcept { return total_; }
  static constexpr std::size_t bytes() noexcept {
    return kBuckets * sizeof(std::uint32_t);
  }

  double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) >= rank) {
        const double frac = (rank - static_cast<double>(seen)) /
                            static_cast<double>(c);
        return lower(i) + frac * width(i);
      }
      seen += c;
    }
    return lower(kBuckets - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub +
           static_cast<std::size_t>((v >> (e - kSubBits)) - kSub);
  }
  static double lower(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t octave = i / kSub;
    return static_cast<double>((kSub + i % kSub) << (octave - 1));
  }
  static double width(std::size_t i) noexcept {
    return i < kSub ? 1.0
                    : static_cast<double>(std::uint64_t{1} << (i / kSub - 1));
  }

  std::vector<std::uint32_t> counts_;  // a round or a phase: < 2^32 ops
  std::uint64_t total_ = 0;
};

/// The timed phase is a grid of fixed-length rounds. The first worker to
/// enter its timed loop anchors the grid with its own clock reading; from
/// then on every stamp is taken by a worker. No coordinator clock exists.
class RoundGrid {
 public:
  RoundGrid(int rounds, std::uint64_t round_ns)
      : rounds_(rounds), round_ns_(round_ns) {}

  /// Anchor the grid at `t` unless another worker already did; returns
  /// the anchor.
  std::uint64_t anchor(std::uint64_t t) noexcept {
    std::uint64_t expect = 0;
    return base_.compare_exchange_strong(expect, t) ? t : expect;
  }
  int rounds() const noexcept { return rounds_; }
  std::uint64_t end(std::uint64_t base) const noexcept {
    return base + static_cast<std::uint64_t>(rounds_) * round_ns_;
  }
  int round_of(std::uint64_t base, std::uint64_t t) const noexcept {
    return static_cast<int>((t - base) / round_ns_);
  }

 private:
  int rounds_;
  std::uint64_t round_ns_;
  std::atomic<std::uint64_t> base_{0};
};

/// One worker's record of the timed phase: for each round, its first
/// request start, last request stop, request count and latency histogram.
/// A request belongs to the round its start falls in.
class WorkerLog {
 public:
  struct Round {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::uint64_t ops = 0;
  };

  explicit WorkerLog(int rounds) : rounds_(rounds), hist_(rounds) {}

  void record(int r, std::uint64_t start, std::uint64_t stop) noexcept {
    Round& rd = rounds_[static_cast<std::size_t>(r)];
    if (rd.ops == 0) rd.first = start;
    rd.last = std::max(rd.last, stop);
    ++rd.ops;
    hist_[static_cast<std::size_t>(r)].add(stop - start);
  }

  const std::vector<Round>& rounds() const noexcept { return rounds_; }
  const std::vector<Histogram>& hist() const noexcept { return hist_; }
  std::size_t bytes() const noexcept {
    return hist_.size() * Histogram::bytes();
  }

 private:
  std::vector<Round> rounds_;
  std::vector<Histogram> hist_;
};

/// The run's end-to-end timing, derived from worker logs only.
///
/// Other tenants of the host only ever slow a round down, in phases of
/// seconds to minutes that a run cannot average away. So the run reports
/// the good-side quartile over its rounds: the third quartile of round
/// throughput and the first quartile of each round latency percentile.
/// A slower program moves every round, and so these figures too. A
/// slowdown confined to fewer than a quarter of the rounds (a periodic
/// stall) does not move them; the whole-phase figures, reported as
/// per-layer metrics, catch that case.
struct PhaseSummary {
  double throughput_mops = 0.0;  // q3 over rounds of round throughput
  double p50_us = 0.0;           // q1 over rounds of the round p50
  double p99_us = 0.0;           // q1 over rounds of the round p99
  double whole_mops = 0.0;       // all ops / (latest stop - earliest start)
  double whole_p50_us = 0.0;     // p50 of every request of the phase
  double whole_p99_us = 0.0;     // p99 of every request of the phase
  std::uint64_t ops = 0;
  std::uint64_t samples_min_round = 0;
  std::uint64_t first = 0;  // earliest worker start
  std::uint64_t last = 0;   // latest worker stop
  int rounds_used = 0;
  std::vector<double> round_mops;
  std::vector<double> round_p99_us;
};

inline PhaseSummary summarize_phase(const std::vector<const WorkerLog*>& logs,
                                    int rounds) {
  PhaseSummary s;
  std::vector<double> mops, p50, p99;
  Histogram all;
  s.first = std::numeric_limits<std::uint64_t>::max();
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t last = 0;
    std::uint64_t ops = 0;
    Histogram h;
    for (const WorkerLog* log : logs) {
      const WorkerLog::Round& rd = log->rounds()[static_cast<std::size_t>(r)];
      if (rd.ops == 0) continue;
      first = std::min(first, rd.first);
      last = std::max(last, rd.last);
      ops += rd.ops;
      h.merge(log->hist()[static_cast<std::size_t>(r)]);
    }
    if (ops == 0) continue;
    s.ops += ops;
    s.first = std::min(s.first, first);
    s.last = std::max(s.last, last);
    mops.push_back(static_cast<double>(ops) * 1e3 /
                   static_cast<double>(last - first));
    p50.push_back(h.quantile(0.50) / 1e3);
    p99.push_back(h.quantile(0.99) / 1e3);
    all.merge(h);
    s.samples_min_round = s.rounds_used == 0
                              ? h.count()
                              : std::min(s.samples_min_round, h.count());
    ++s.rounds_used;
  }
  if (s.rounds_used == 0) s.first = 0;
  s.round_mops = mops;
  s.round_p99_us = p99;
  s.throughput_mops = quantile(mops, 0.75);
  s.p50_us = quantile(p50, 0.25);
  s.p99_us = quantile(p99, 0.25);
  if (s.last > s.first)
    s.whole_mops = static_cast<double>(s.ops) * 1e3 /
                   static_cast<double>(s.last - s.first);
  s.whole_p50_us = all.quantile(0.50) / 1e3;
  s.whole_p99_us = all.quantile(0.99) / 1e3;
  return s;
}

/// Spans of one thread, kept in memory and written out after the run.
/// Only every `stride`-th request records its spans, and recording stops
/// when the preallocated buffer is full, so tracing never allocates in
/// the timed loop.
enum class SpanName : std::uint16_t {
  kReq,
  kDsContains,
  kDsInsert,
  kDsRemove,
  kKvGet,
  kKvPut,
  kNetBatch,
  kNetGen,
  kNetFlush,
  kNetReq,
};
inline constexpr const char* kSpanNames[] = {
    "req",     "ds.contains", "ds.insert", "ds.remove", "kv.get",
    "kv.put",  "net.batch",   "net.gen",   "net.flush", "net.req"};

struct Span {
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t req;
  std::int32_t parent;  // index in the same log, -1 for a root span
  SpanName name;
};

class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(std::size_t capacity, std::uint64_t stride) : stride_(stride) {
    spans_.reserve(capacity);
  }

  bool sampled(std::uint64_t req) const noexcept {
    return stride_ != 0 && req % stride_ == 0 &&
           spans_.size() + kHeadroom <= spans_.capacity();
  }
  std::int32_t add(SpanName name, std::uint64_t start, std::uint64_t end,
                   std::uint64_t req, std::int32_t parent) noexcept {
    spans_.push_back(Span{start, end, req, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Set the end of a span opened with end = 0.
  void close(std::int32_t idx, std::uint64_t end) noexcept {
    spans_[static_cast<std::size_t>(idx)].end = end;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::size_t bytes() const noexcept { return spans_.capacity() * sizeof(Span); }

 private:
  // Room for the spans of every request still open when sampling stops
  // (the net leg: four batches of 3 + 64 spans).
  static constexpr std::size_t kHeadroom = 512;
  std::uint64_t stride_ = 0;
  std::vector<Span> spans_;
};

/// Sampling stride that keeps an expected `units` × `spans_per_unit`
/// within `capacity`: the next power of two above the ratio.
inline std::uint64_t span_stride(double units, int spans_per_unit,
                                 std::size_t capacity) {
  const double need = units * spans_per_unit / static_cast<double>(capacity);
  return std::bit_ceil(static_cast<std::uint64_t>(std::max(1.0, need)));
}

/// Exact quantile of the durations of every span with one of `names`.
inline double span_quantile_ns(const std::vector<const SpanLog*>& logs,
                               std::initializer_list<SpanName> names,
                               double q) {
  std::vector<double> d;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans())
      if (std::find(names.begin(), names.end(), s.name) != names.end())
        d.push_back(static_cast<double>(s.end - s.start));
  return quantile(std::move(d), q);
}

/// Summed duration of every span named `name`; `count` gets their number.
inline double span_total_ns(const std::vector<const SpanLog*>& logs,
                            SpanName name, std::size_t& count) {
  double total = 0.0;
  count = 0;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans())
      if (s.name == name) {
        total += static_cast<double>(s.end - s.start);
        ++count;
      }
  return total;
}

/// Tab-separated dump: thread, index, name, start, end, parent, request.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tname\tstart_ns\tend_ns\tparent\treq\n");
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%llu\t%llu\t%d\t%llu\n", t, i,
                   kSpanNames[static_cast<std::size_t>(s.name)],
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end), s.parent,
                   static_cast<unsigned long long>(s.req));
    }
  }
  return std::fclose(f) == 0;
}

// ---- Process and host probes -------------------------------------------

inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Aggregate steal time from /proc/stat, in milliseconds (0 if absent).
inline double steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (auto& f : field)
    if (!(in >> f)) return 0.0;
  return static_cast<double>(field[7]) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) in MiB.
inline double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kib = 0.0;
      ls >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// Bytes the C heap has handed out, across all arenas and mmapped chunks.
inline double heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

/// A fixed dependent-multiply chain; ns per step. Timed before and after
/// the timed phase to tell a slow host phase from a slow program.
inline double ref_loop_ns() {
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 22;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));
  }
  const std::uint64_t t1 = now_ns();
  return static_cast<double>(t1 - t0) / static_cast<double>(kSteps);
}

/// Phase gate the coordinator opens and workers park on (no spinning, so
/// the coordinator's own probes are not starved).
class Gate {
 public:
  static constexpr int kCancel = -1;
  void open(int phase) noexcept {
    phase_.store(phase, std::memory_order_release);
    phase_.notify_all();
  }
  /// Parks until the gate reaches `phase` or is cancelled; false if
  /// cancelled.
  bool wait(int phase) noexcept {
    for (;;) {
      const int v = phase_.load(std::memory_order_acquire);
      if (v == kCancel) return false;
      if (v >= phase) return true;
      phase_.wait(v, std::memory_order_acquire);
    }
  }

 private:
  std::atomic<int> phase_{0};
};

/// Counts arrivals; the coordinator parks until all have arrived.
class Latch {
 public:
  explicit Latch(int n) : left_(n) {}
  void arrive() noexcept {
    left_.fetch_sub(1, std::memory_order_acq_rel);
    left_.notify_all();
  }
  void wait() noexcept {
    for (int v = left_.load(std::memory_order_acquire); v > 0;
         v = left_.load(std::memory_order_acquire))
      left_.wait(v, std::memory_order_acquire);
  }

 private:
  std::atomic<int> left_;
};

}  // namespace perfbench
