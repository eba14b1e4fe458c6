#pragma once

// The two workloads. Each one does its set-up (inputs, prefill, start),
// then a warm-up pass and the timed phase, checking every output;
// kv-update then serves its store over loopback for the net leg. A
// set-up copy (RunConfig::setup_only) stops after set-up, reports its
// parts and tears down again.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "core/rr.hpp"
#include "ds/sll_hoh.hpp"
#include "kv/store.hpp"
#include "kv/workload.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "reclaim/gauge.hpp"
#include "tm/tm.hpp"
#include "util/random.hpp"
#include "util/zipfian.hpp"

#include "common.hpp"

namespace perfbench {

using TM = hohtm::tm::Norec;
using RR = hohtm::rr::RrV<TM>;
using Store = hohtm::kv::Store<TM, RR>;
using Service = hohtm::kv::Service<TM, RR>;
using Server = hohtm::net::Server<TM, RR>;
using List = hohtm::ds::SllHoh<TM, RR>;

// Shipped sizes.
inline constexpr std::size_t kRecords = 100000;  // kv prefill and domain
inline constexpr int kWindow = 16;
inline constexpr int kKvThreads = 2;
inline constexpr std::size_t kKvStreamOps = std::size_t{1} << 17;
inline constexpr int kListThreads = 2;
inline constexpr int kListRange = 1024;
inline constexpr std::size_t kListStreamOps = std::size_t{1} << 15;
inline constexpr int kNetConns = 4;
// Deep pipelines keep the server's threads busy between batches, so fewer
// requests wait on a thread being woken.
inline constexpr int kNetDepth = 64;
inline constexpr int kNetWorkers = 2;
inline constexpr std::size_t kNetStreamOps = std::size_t{1} << 15;
inline constexpr std::uint64_t kNetWarmNs = 1'000'000'000;
inline constexpr int kNetLegRounds = 12;
inline constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int rounds = 10;
  std::uint64_t round_ns = 1000000000;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its spans
  bool setup_only = false;            // a set-up copy: no warm-up, no timing
  std::uint64_t process_start_ns = 0;  // set-up is timed from here
};

struct RunResult {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  PhaseSummary phase;
  std::vector<std::string> notes;  // printed as '#' lines before the result

  void fail(const std::string& why) {
    ++failed;
    notes.push_back("check failed: " + why);
  }
};

// ---- Inputs ---------------------------------------------------------------

/// Keys and the two admissible values of every record, in flat arenas:
/// make_value(rank, 0) is the prefill, make_value(rank, 1) the update.
class KvCorpus {
 public:
  explicit KvCorpus(std::size_t records) : records_(records) {
    key_off_.reserve(records + 1);
    val_off_.reserve(2 * records + 1);
    for (std::size_t r = 0; r < records; ++r) {
      key_off_.push_back(static_cast<std::uint32_t>(keys_.size()));
      keys_ += hohtm::kv::make_key(r);
    }
    key_off_.push_back(static_cast<std::uint32_t>(keys_.size()));
    for (std::uint64_t v = 0; v < 2; ++v)
      for (std::size_t r = 0; r < records; ++r) {
        val_off_.push_back(static_cast<std::uint32_t>(values_.size()));
        values_ += hohtm::kv::make_value(r, v);
      }
    val_off_.push_back(static_cast<std::uint32_t>(values_.size()));
    // Drop the growth slack, which would otherwise count in mem_peak_mib.
    keys_.shrink_to_fit();
    values_.shrink_to_fit();
  }

  std::size_t records() const noexcept { return records_; }
  std::string_view key(std::uint32_t r) const noexcept {
    return {keys_.data() + key_off_[r], key_off_[r + 1] - key_off_[r]};
  }
  std::string_view value(std::uint32_t r, unsigned v) const noexcept {
    const std::size_t i = v * records_ + r;
    return {values_.data() + val_off_[i], val_off_[i + 1] - val_off_[i]};
  }
  /// The get check: `got` is a value make_value can produce for `r`.
  bool admissible(std::uint32_t r, std::string_view got) const noexcept {
    return got == value(r, 0) || got == value(r, 1);
  }

 private:
  std::size_t records_;
  std::string keys_;
  std::string values_;
  std::vector<std::uint32_t> key_off_;
  std::vector<std::uint32_t> val_off_;
};

struct KvOp {
  std::uint32_t rank;
  std::uint8_t put;  // 1 = overwriting put, 0 = get
  std::uint8_t ver;  // value version a put writes
};

/// One Zipfian(0.99) op stream per thread or connection, numbered from
/// `first` so that every stream of a run draws its own numbers.
inline std::vector<std::vector<KvOp>> make_kv_streams(
    std::uint64_t seed, int streams, std::size_t ops, unsigned put_pct,
    std::size_t records, Digest& digest, int first = 0) {
  std::vector<std::vector<KvOp>> out(static_cast<std::size_t>(streams));
  for (int s = 0; s < streams; ++s) {
    hohtm::util::Zipfian zipf(records, 0.99, mix_seed(seed, 1, first + s));
    hohtm::util::Xoshiro256 rng(mix_seed(seed, 2, first + s));
    std::vector<KvOp>& st = out[static_cast<std::size_t>(s)];
    st.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) {
      KvOp op{static_cast<std::uint32_t>(zipf.next()), 0, 0};
      op.put = rng.next_below(100) < put_pct ? 1 : 0;
      op.ver = op.put ? static_cast<std::uint8_t>(rng.next() & 1) : 0;
      st.push_back(op);
      digest.add(op.rank | std::uint64_t{op.put} << 32 |
                 std::uint64_t{op.ver} << 40);
    }
  }
  return out;
}

struct ListOp {
  std::uint16_t key;
  std::uint8_t kind;  // 0 contains, 1 insert, 2 remove
};

struct ListInputs {
  std::vector<long> prefill;  // half the key range, seeded
  std::vector<std::vector<ListOp>> streams;
  std::uint64_t digest = 0;
};

inline ListInputs make_list_inputs(std::uint64_t seed, int threads,
                                   std::size_t ops) {
  ListInputs in;
  Digest digest;
  std::vector<long> keys(kListRange);
  for (int k = 0; k < kListRange; ++k) keys[static_cast<std::size_t>(k)] = k;
  hohtm::util::Xoshiro256 shuffle(mix_seed(seed, 3, 0));
  for (std::size_t i = keys.size() - 1; i > 0; --i)
    std::swap(keys[i], keys[shuffle.next_below(i + 1)]);
  in.prefill.assign(keys.begin(), keys.begin() + kListRange / 2);
  for (long k : in.prefill) digest.add(static_cast<std::uint64_t>(k));
  in.streams.resize(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    hohtm::util::Xoshiro256 rng(mix_seed(seed, 4, t));
    auto& st = in.streams[static_cast<std::size_t>(t)];
    st.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) {
      const auto key = static_cast<std::uint16_t>(rng.next_below(kListRange));
      const std::uint64_t dice = rng.next_below(100);
      const std::uint8_t kind = dice < 80 ? 0 : dice < 90 ? 1 : 2;
      st.push_back(ListOp{key, kind});
      digest.add(std::uint64_t{key} | std::uint64_t{kind} << 16);
    }
  }
  in.digest = digest.h;
  return in;
}

// ---- Shared coordinator pieces -------------------------------------------

/// Counter snapshot around the timed phase.
struct Snapshot {
  hohtm::tm::StatCounters tm;
  hohtm::alloc::PoolStats pool;
  double cpu_s = 0.0;
  double steal_ms = 0.0;
  double ref_ns = 0.0;
  static Snapshot take() {
    Snapshot s;
    s.ref_ns = ref_loop_ns();
    s.tm = hohtm::tm::Stats::total();
    s.pool = hohtm::alloc::pool_stats();
    s.cpu_s = cpu_seconds();
    s.steal_ms = perfbench::steal_ms();
    return s;
  }
};

/// Set-up clock, split into its three parts.
class SetupClock {
 public:
  explicit SetupClock(std::uint64_t start) : mark_(start) {}
  double lap() {
    const std::uint64_t t = now_ns();
    const double s = static_cast<double>(t - mark_) / 1e9;
    mark_ = t;
    return s;
  }

 private:
  std::uint64_t mark_;
};

/// A set-up copy prints its parts the moment its set-up is done; the
/// parent that spawned it stops its clock on this line.
inline void setup_done(const RunConfig& cfg, double inputs, double prefill,
                       double start) {
  if (!cfg.setup_only) return;
  std::printf("ready %.9f %.9f %.9f\n", inputs, prefill, start);
  std::fflush(stdout);
}

/// Per-op ratios and process figures every workload reports.
inline void common_metrics(RunResult& res, const Snapshot& a,
                           const Snapshot& b, double ops) {
  auto per_op = [&](double v) { return ops > 0 ? v / ops : 0.0; };
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  using hohtm::tm::AbortCause;
  auto& m = res.metrics;
  m["tm.commits_per_op"] = per_op(d(a.tm.commits, b.tm.commits));
  m["tm.fused_windows_per_op"] =
      per_op(d(a.tm.fused_windows, b.tm.fused_windows));
  m["tm.aborts_per_op"] = per_op(d(a.tm.aborts, b.tm.aborts));
  m["tm.validation_aborts_per_op"] =
      per_op(d(a.tm.cause(AbortCause::kReadValidation),
               b.tm.cause(AbortCause::kReadValidation)));
  m["tm.quiescence_waits_per_op"] =
      per_op(d(a.tm.quiescence_waits, b.tm.quiescence_waits));
  m["rr.reservation_losses_per_op"] =
      per_op(d(a.tm.reservation_losses, b.tm.reservation_losses));
  const double hits = d(a.pool.local_hits, b.pool.local_hits);
  const double allocs = hits + d(a.pool.carve_allocs, b.pool.carve_allocs);
  m["alloc.pool_allocs_per_op"] = per_op(allocs);
  m["alloc.local_hit_share"] = allocs > 0 ? hits / allocs : 0.0;
  m["alloc.remote_reclaims_per_op"] =
      per_op(d(a.pool.remote_reclaims, b.pool.remote_reclaims));
  m["proc.cpu_us_per_op"] = per_op((b.cpu_s - a.cpu_s) * 1e6);
  m["host.steal_ms"] = b.steal_ms - a.steal_ms;
  m["host.ref_loop_ns"] = 0.5 * (a.ref_ns + b.ref_ns);
}

inline void phase_metrics(RunResult& res, const PhaseSummary& ph) {
  res.phase = ph;
  auto& m = res.metrics;
  m["throughput_mops"] = ph.throughput_mops;
  m["req_p50_us"] = ph.p50_us;
  m["req_p99_us"] = ph.p99_us;
  m["trace.throughput_mops"] = ph.throughput_mops;
  m["phase.throughput_mops"] = ph.whole_mops;
  m["phase.req_p50_us"] = ph.whole_p50_us;
  m["phase.req_p99_us"] = ph.whole_p99_us;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "phase: %llu ops in %d rounds over %.6f s (earliest worker "
                "start to latest worker stop); latency samples per round "
                ">= %llu",
                static_cast<unsigned long long>(ph.ops), ph.rounds_used,
                static_cast<double>(ph.last - ph.first) / 1e9,
                static_cast<unsigned long long>(ph.samples_min_round));
  res.notes.emplace_back(buf);
  auto list = [&](const char* title, const std::vector<double>& v) {
    std::string line = title;
    for (double x : v) {
      std::snprintf(buf, sizeof buf, " %.4g", x);
      line += buf;
    }
    res.notes.push_back(line);
  };
  list("round Mops/s:", ph.round_mops);
  list("round p99 us:", ph.round_p99_us);
}

/// The timed loop of a closed-loop worker issuing one request at a time.
/// `op(i, stamp)` runs request i of the stream and returns its check; when
/// `stamp` is non-null (a sampled request of a traced run) it also stamps
/// the span around its library call.
struct LayerStamp {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  SpanName name = SpanName::kReq;
};

template <class Op>
std::uint64_t timed_loop(RoundGrid& grid, WorkerLog& log, SpanLog& spans,
                         std::size_t stream_ops, std::uint64_t& failed,
                         Op&& op) {
  std::uint64_t t = now_ns();
  const std::uint64_t base = grid.anchor(t);
  if (t < base) t = now_ns();
  const std::uint64_t end = grid.end(base);
  std::uint64_t req = 0;
  std::size_t i = 0;
  while (t < end) {
    const int r = grid.round_of(base, t);
    const std::uint64_t t0 = t;
    if (spans.sampled(req)) {
      LayerStamp ls;
      if (!op(i, &ls)) ++failed;
      t = now_ns();
      const std::int32_t root = spans.add(SpanName::kReq, t0, t, req, -1);
      spans.add(ls.name, ls.start, ls.end, req, root);
    } else {
      if (!op(i, nullptr)) ++failed;
      t = now_ns();
    }
    log.record(r, t0, t);
    ++req;
    if (++i == stream_ops) i = 0;
  }
  return req;
}

/// Wraps a library call in a layer span when `ls` is non-null.
template <class F>
auto layer_call(LayerStamp* ls, SpanName name, F&& f) {
  if (ls == nullptr) return f();
  ls->name = name;
  ls->start = now_ns();
  auto r = f();
  ls->end = now_ns();
  return r;
}

/// Span sampling stride for a traced run that expects `units_per_s` span
/// groups per second on one log, with 2x headroom; 0 when untraced.
inline std::uint64_t stride_for(const RunConfig& cfg, double units_per_s,
                                int spans_per_unit) {
  if (!cfg.trace) return 0;
  const double secs = static_cast<double>(cfg.rounds) *
                      static_cast<double>(cfg.round_ns) / 1e9;
  return span_stride(2.0 * units_per_s * secs, spans_per_unit, kSpanCapacity);
}

/// Closed-loop worker threads, one op stream each (kv-update, list-hoh).
/// `make_op(w)` runs on worker w and returns its `op(i, stamp)`. Each
/// worker allocates its own log, so no two workers share a cache line.
class WorkerPool {
 public:
  struct Worker {
    std::unique_ptr<WorkerLog> log;
    SpanLog spans;
    std::uint64_t failed = 0;
    std::uint64_t timed = 0;
  };

  template <class MakeOp>
  WorkerPool(const RunConfig& cfg, int threads, std::size_t stream_ops,
             MakeOp make_op)
      : cfg_(cfg),
        stream_ops_(stream_ops),
        grid_(cfg.rounds, cfg.round_ns),
        warm_(threads),
        workers_(static_cast<std::size_t>(threads)) {
    for (int w = 0; w < threads; ++w)
      threads_.emplace_back([this, w, make_op] {
        auto op = make_op(w);
        auto mine = std::make_unique<Worker>();
        Worker& me = *mine;
        workers_[static_cast<std::size_t>(w)] = std::move(mine);
        if (!gate_.wait(1)) return;
        for (std::size_t i = 0; i < stream_ops_; ++i)
          if (!op(i, nullptr)) ++me.failed;
        me.log = std::make_unique<WorkerLog>(cfg_.rounds);
        warm_.arrive();
        if (!gate_.wait(2)) return;
        me.spans = SpanLog(stride_ ? kSpanCapacity : 0, stride_);
        me.timed = timed_loop(grid_, *me.log, me.spans, stream_ops_,
                              me.failed, op);
      });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool() { cancel(); }

  /// Set-up only: release the workers without running anything.
  void cancel() {
    gate_.open(Gate::kCancel);
    join();
  }

  /// One pass over every stream; returns its rate in ops/s per worker.
  double warm_up() {
    const std::uint64_t t0 = now_ns();
    gate_.open(1);
    warm_.wait();
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    return static_cast<double>(stream_ops_) / std::max(s, 1e-9);
  }

  /// The timed phase, bracketed by counter snapshots.
  void run(std::uint64_t stride, Snapshot& before, Snapshot& after) {
    stride_ = stride;
    before = Snapshot::take();
    gate_.open(2);
    join();
    after = Snapshot::take();
  }

  void collect(RunResult& res, std::vector<const WorkerLog*>& logs,
               std::vector<const SpanLog*>& spans) const {
    for (const auto& w : workers_) {
      logs.push_back(w->log.get());
      spans.push_back(&w->spans);
      res.attempted += stream_ops_ + w->timed;
      res.failed += w->failed;
    }
  }

 private:
  void join() {
    for (auto& th : threads_)
      if (th.joinable()) th.join();
  }

  const RunConfig& cfg_;
  std::size_t stream_ops_;
  RoundGrid grid_;
  Gate gate_;
  Latch warm_;
  std::uint64_t stride_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
};

inline std::string span_path(const RunConfig& cfg) {
  return cfg.out_dir + "/spans-" + cfg.workload + ".tsv";
}

inline void finish_trace(RunResult& res, const RunConfig& cfg,
                         const std::vector<const SpanLog*>& logs) {
  if (!cfg.trace || cfg.out_dir.empty()) return;
  const std::string path = span_path(cfg);
  if (write_spans(path, logs))
    res.notes.push_back("spans written to " + path);
  else
    res.fail("could not write " + path);
}

/// Gauge balance: every object set-up allocated is gone after teardown.
inline void check_gauge(RunResult& res, long long before) {
  const long long after = hohtm::reclaim::Gauge::live();
  if (after != before)
    res.fail("Gauge::live() " + std::to_string(after) +
             " after teardown, expected " + std::to_string(before));
}

inline std::unique_ptr<Store> prefill_store(const KvCorpus& corpus) {
  Store::Options opt;
  opt.window = kWindow;
  opt.fusion_cap = kWindow;
  auto store = std::make_unique<Store>(opt);
  for (std::uint32_t r = 0; r < corpus.records(); ++r)
    store->put(corpus.key(r), corpus.value(r, 0));
  store->finish_migration();
  return store;
}

inline void store_checks(RunResult& res, Store& store, std::size_t records) {
  if (!store.is_consistent()) res.fail("Store::is_consistent()");
  const std::size_t size = store.size();
  if (size != records)
    res.fail("store size " + std::to_string(size) + ", expected " +
             std::to_string(records));
}

/// Structure metrics read at the end of the run, before teardown. The
/// heap figure is everything in use except the benchmark's own inputs,
/// latency histograms and span buffers, so it includes allocator slabs
/// kept from earlier set-ups and free lists.
inline void footprint_metrics(RunResult& res, long long live_before,
                              double input_bytes,
                              const std::vector<const WorkerLog*>& logs,
                              const std::vector<const SpanLog*>& spans,
                              double size) {
  double log_bytes = 0.0;
  double span_bytes = 0.0;
  for (const WorkerLog* l : logs) log_bytes += static_cast<double>(l->bytes());
  for (const SpanLog* l : spans) span_bytes += static_cast<double>(l->bytes());
  const double bench_bytes = input_bytes + log_bytes + span_bytes;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "benchmark's own heap: %.3f MiB (inputs %.3f, latency "
                "logs %.3f, spans %.3f)",
                bench_bytes / 1048576.0, input_bytes / 1048576.0,
                log_bytes / 1048576.0, span_bytes / 1048576.0);
  res.notes.emplace_back(buf);
  const double live = static_cast<double>(hohtm::reclaim::Gauge::live() -
                                          live_before);
  res.metrics["reclaim.live_over_size"] = size > 0 ? live / size : 0.0;
  res.metrics["alloc.heap_bytes_per_record"] =
      size > 0 ? (heap_in_use_bytes() - bench_bytes) / size : 0.0;
}

// ---- list-hoh -------------------------------------------------------------

inline RunResult run_list_hoh(const RunConfig& cfg) {
  RunResult res;
  SetupClock clock(cfg.process_start_ns);
  const long long live0 = hohtm::reclaim::Gauge::live();
  {
    const double heap0 = heap_in_use_bytes();
    const ListInputs in =
        make_list_inputs(cfg.seed, kListThreads, kListStreamOps);
    const double heap_inputs = heap_in_use_bytes();
    const double t_in = clock.lap();
    List list(kWindow);
    for (long k : in.prefill) list.insert(k);
    const double t_pre = clock.lap();
    // Successful inserts and removes per worker, one cache line each.
    std::vector<hohtm::util::CachePadded<std::int64_t>> delta(kListThreads);
    WorkerPool pool(cfg, kListThreads, kListStreamOps, [&](int w) {
      return [&ops = in.streams[static_cast<std::size_t>(w)], &list,
              &d = delta[static_cast<std::size_t>(w)].value](
                 std::size_t i, LayerStamp* ls) {
        const ListOp o = ops[i];
        const long key = o.key;
        switch (o.kind) {
          case 0:
            layer_call(ls, SpanName::kDsContains,
                       [&] { return list.contains(key); });
            break;
          case 1:
            d += layer_call(ls, SpanName::kDsInsert,
                            [&] { return list.insert(key); });
            break;
          default:
            d -= layer_call(ls, SpanName::kDsRemove,
                            [&] { return list.remove(key); });
            break;
        }
        return true;
      };
    });
    setup_done(cfg, t_in, t_pre, clock.lap());
    if (cfg.setup_only) {
      pool.cancel();
    } else {
      res.digest = in.digest;
      res.metrics["bench.input_mib"] = (heap_inputs - heap0) / 1048576.0;
      const double rate = pool.warm_up();
      Snapshot a, b;
      pool.run(stride_for(cfg, rate, 2), a, b);
      std::vector<const WorkerLog*> logs;
      std::vector<const SpanLog*> spans;
      pool.collect(res, logs, spans);
      const PhaseSummary ph = summarize_phase(logs, cfg.rounds);
      phase_metrics(res, ph);
      common_metrics(res, a, b, static_cast<double>(ph.ops));
      auto& m = res.metrics;
      m["ds.contains_ns_p50"] =
          span_quantile_ns(spans, {SpanName::kDsContains}, 0.50);
      m["ds.update_ns_p50"] = span_quantile_ns(
          spans, {SpanName::kDsInsert, SpanName::kDsRemove}, 0.50);
      m["ds.update_ns_p99"] = span_quantile_ns(
          spans, {SpanName::kDsInsert, SpanName::kDsRemove}, 0.99);
      const std::size_t size = list.size();
      footprint_metrics(res, live0, heap_inputs - heap0, logs, spans,
                        static_cast<double>(size));
      std::int64_t expect = static_cast<std::int64_t>(in.prefill.size());
      for (const auto& d : delta) expect += d.value;
      if (static_cast<std::int64_t>(size) != expect)
        res.fail("list size " + std::to_string(size) + ", expected " +
                 std::to_string(expect) + " (prefill + inserts - removes)");
      if (!list.is_sorted()) res.fail("list is not sorted");
      finish_trace(res, cfg, spans);
    }
  }
  check_gauge(res, live0);
  return res;
}

// ---- kv-update's net leg --------------------------------------------------

/// One client connection driven at a fixed pipeline depth: a batch of
/// `kNetDepth` requests is encoded, flushed in one write, and its
/// responses are read back in order before the next batch is sent.
class NetConn {
 public:
  NetConn(const KvCorpus& corpus, const std::vector<KvOp>& ops)
      : corpus_(corpus), ops_(ops) {}

  bool connect(std::uint16_t port) { return client_.connect(port); }
  void close() { client_.close(); }

  /// Encode and send the next batch; stamps the flush.
  void issue(SpanLog* spans, std::uint64_t batch_id) {
    const std::uint64_t g0 = now_ns();
    for (int k = 0; k < kNetDepth; ++k) {
      const KvOp& o = ops_[pos_];
      if (++pos_ == ops_.size()) pos_ = 0;
      inflight_[k] = o;
      const std::string_view key = corpus_.key(o.rank);
      seq_[k] = o.put ? client_.queue_put(key, corpus_.value(o.rank, o.ver))
                      : client_.queue_get(key);
    }
    flush_start_ = now_ns();
    ok_ = client_.flush() != 0;
    batch_span_ = -1;
    if (spans != nullptr) {
      const std::uint64_t f1 = now_ns();
      batch_span_ = spans->add(SpanName::kNetBatch, flush_start_, 0,
                               batch_id, -1);
      spans->add(SpanName::kNetGen, g0, flush_start_, batch_id, batch_span_);
      spans->add(SpanName::kNetFlush, flush_start_, f1, batch_id,
                 batch_span_);
    }
    outstanding_ = true;
  }

  /// Read the batch's responses; each is checked and logged from the
  /// batch's flush to its own arrival, and gets a span if its batch was
  /// sampled at issue(). Returns the last arrival stamp.
  std::uint64_t collect(WorkerLog* log, int round, SpanLog* spans,
                        RunResult& res, std::uint64_t& failed,
                        std::uint64_t& done) {
    std::uint64_t t = now_ns();
    outstanding_ = false;
    for (int k = 0; k < kNetDepth; ++k) {
      const bool got = ok_ && client_.recv(resp_);
      t = now_ns();
      ++done;
      if (!got) {
        ok_ = false;
        ++failed;
        if (failed == 1) res.notes.push_back("check failed: connection lost");
        continue;
      }
      if (!check(k)) ++failed;
      if (log != nullptr) log->record(round, flush_start_, t);
      if (spans != nullptr && batch_span_ >= 0)
        spans->add(SpanName::kNetReq, flush_start_, t, seq_[k], batch_span_);
    }
    if (spans != nullptr && batch_span_ >= 0) spans->close(batch_span_, t);
    return t;
  }

  bool outstanding() const noexcept { return outstanding_; }
  std::uint64_t flush_start() const noexcept { return flush_start_; }

 private:
  bool check(int k) const {
    const KvOp& o = inflight_[k];
    if (resp_.seq != seq_[k] || resp_.status != hohtm::net::WireStatus::kOk)
      return false;
    if (o.put) return resp_.op == hohtm::net::WireOp::kPut && !resp_.created;
    return resp_.op == hohtm::net::WireOp::kGet &&
           corpus_.admissible(o.rank, resp_.value);
  }

  const KvCorpus& corpus_;
  const std::vector<KvOp>& ops_;
  hohtm::net::Client client_;
  std::size_t pos_ = 0;
  KvOp inflight_[kNetDepth] = {};
  std::uint32_t seq_[kNetDepth] = {};
  std::uint64_t flush_start_ = 0;
  std::int32_t batch_span_ = -1;
  bool outstanding_ = false;
  bool ok_ = true;
  hohtm::net::NetResponse resp_;
};

/// kv-update's net leg: after the timed phase, the same store is served
/// over loopback by kv::Service (kNetWorkers workers) behind net::Server,
/// and one client thread drives kNetConns connections at depth kNetDepth
/// with YCSB-B (95% GET, 5% PUT) for `rounds` rounds. It feeds the net.*
/// per-layer metrics only: on a shared host this pipeline of four threads
/// follows the host's steal time far more than the program (NOTES.md),
/// so it is no end-to-end workload. Its spans go to `spans`.
inline void run_net_leg(const RunConfig& cfg, int rounds,
                        const KvCorpus& corpus, Store& store,
                        const std::vector<std::vector<KvOp>>& streams,
                        RunResult& res, SpanLog& spans) {
  Service svc(store, kNetWorkers);
  Server::Options server_opt;
  server_opt.max_inflight_ops = kNetDepth;  // one whole batch per connection
  Server server(svc, server_opt);
  std::vector<std::unique_ptr<NetConn>> conns;
  bool connected = server.ok();
  for (int c = 0; c < kNetConns && connected; ++c) {
    conns.push_back(std::make_unique<NetConn>(
        corpus, streams[static_cast<std::size_t>(c)]));
    connected = conns.back()->connect(server.port());
  }
  if (!connected) {
    res.fail("net leg: loopback server or connect failed");
  } else {
    std::uint64_t failed = 0;
    std::uint64_t warm_done = 0;
    // Warm-up: whole passes over every connection's stream for at least
    // kNetWarmNs; the first second of loopback traffic runs slower.
    const std::uint64_t w0 = now_ns();
    do {
      for (std::size_t b = 0; b < kNetStreamOps / kNetDepth; ++b) {
        for (auto& c : conns) c->issue(nullptr, 0);
        for (auto& c : conns)
          c->collect(nullptr, 0, nullptr, res, failed, warm_done);
      }
    } while (now_ns() - w0 < kNetWarmNs);
    const double warm_s = static_cast<double>(now_ns() - w0) / 1e9;
    RunConfig leg = cfg;
    leg.rounds = rounds;
    const std::uint64_t stride =
        stride_for(leg, static_cast<double>(warm_done) / kNetDepth /
                            std::max(warm_s, 1e-9),
                   3 + kNetDepth);
    spans = SpanLog(stride ? kSpanCapacity : 0, stride);
    WorkerLog log(rounds);
    RoundGrid grid(rounds, cfg.round_ns);
    const Server::Counters n0 = server.counters();
    const Snapshot a = Snapshot::take();
    std::uint64_t timed_done = 0;
    std::thread client([&] {
      std::uint64_t t = now_ns();
      const std::uint64_t base = grid.anchor(t);
      if (t < base) t = now_ns();
      const std::uint64_t end = grid.end(base);
      std::uint64_t batch = 0;
      std::vector<std::uint64_t> bid(conns.size());
      auto send = [&](std::size_t c) {
        bid[c] = batch++;
        conns[c]->issue(spans.sampled(bid[c]) ? &spans : nullptr, bid[c]);
      };
      for (std::size_t c = 0; c < conns.size(); ++c) send(c);
      bool stopping = false;
      for (bool any = true; any;) {
        any = false;
        for (std::size_t c = 0; c < conns.size(); ++c) {
          if (!conns[c]->outstanding()) continue;
          // A batch sent just before the end can flush just after it; it
          // still belongs to the last round.
          const int r = std::min(grid.round_of(base, conns[c]->flush_start()),
                                 grid.rounds() - 1);
          t = conns[c]->collect(&log, r, &spans, res, failed, timed_done);
          stopping = stopping || t >= end;
          if (!stopping) send(c);
          any = true;
        }
      }
    });
    client.join();
    const Snapshot b = Snapshot::take();
    const Server::Counters n1 = server.counters();
    res.attempted += warm_done + timed_done;
    res.failed += failed;
    const PhaseSummary ph = summarize_phase({&log}, rounds);
    const double ops = static_cast<double>(std::max<std::uint64_t>(ph.ops, 1));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "net leg: %llu ops in %d rounds over %.6f s",
                  static_cast<unsigned long long>(ph.ops), ph.rounds_used,
                  static_cast<double>(ph.last - ph.first) / 1e9);
    res.notes.emplace_back(buf);
    auto& m = res.metrics;
    m["net.throughput_mops"] = ph.whole_mops;
    m["net.req_p50_us"] = ph.whole_p50_us;
    m["net.req_p99_us"] = ph.whole_p99_us;
    m["net.cpu_us_per_op"] = (b.cpu_s - a.cpu_s) * 1e6 / ops;
    const double batches = static_cast<double>(n1.batches - n0.batches);
    m["net.ops_per_batch"] = batches > 0 ? ops / batches : 0.0;
    m["net.fused_op_share"] =
        static_cast<double>(n1.fused_ops - n0.fused_ops) / ops;
    m["net.batch_txs_per_op"] =
        static_cast<double>(n1.batch_txs - n0.batch_txs) / ops;
    m["net.bytes_in_per_op"] =
        static_cast<double>(n1.bytes_in - n0.bytes_in) / ops;
    m["net.bytes_out_per_op"] =
        static_cast<double>(n1.bytes_out - n0.bytes_out) / ops;
    m["net.max_inflight"] = static_cast<double>(n1.max_inflight);
    const std::vector<const SpanLog*> sp{&spans};
    m["net.batch_rtt_us_p50"] =
        span_quantile_ns(sp, {SpanName::kNetBatch}, 0.50) / 1e3;
    m["net.batch_rtt_us_p99"] =
        span_quantile_ns(sp, {SpanName::kNetBatch}, 0.99) / 1e3;
    m["net.flush_us_p50"] =
        span_quantile_ns(sp, {SpanName::kNetFlush}, 0.50) / 1e3;
    std::size_t gen_batches = 0;
    const double gen_ns = span_total_ns(sp, SpanName::kNetGen, gen_batches);
    m["net.gen_ns_per_op"] =
        gen_batches > 0
            ? gen_ns / static_cast<double>(gen_batches * kNetDepth)
            : 0.0;
    m["net.gen_busy_share"] =
        gen_batches > 0 && ph.last > ph.first
            ? gen_ns * static_cast<double>(stride) /
                  static_cast<double>(ph.last - ph.first)
            : 0.0;
  }
  for (auto& c : conns) c->close();
  server.stop();
  svc.stop();
}

// ---- kv-update ------------------------------------------------------------

inline RunResult run_kv_update(const RunConfig& cfg) {
  RunResult res;
  SetupClock clock(cfg.process_start_ns);
  const long long live0 = hohtm::reclaim::Gauge::live();
  {
    const double heap0 = heap_in_use_bytes();
    const KvCorpus corpus(kRecords);
    Digest digest;
    const auto streams = make_kv_streams(cfg.seed, kKvThreads, kKvStreamOps,
                                         50, kRecords, digest);
    const auto net_streams =
        make_kv_streams(cfg.seed, kNetConns, kNetStreamOps, 5, kRecords,
                        digest, kKvThreads);
    const double heap_inputs = heap_in_use_bytes();
    const double t_in = clock.lap();
    auto store = prefill_store(corpus);
    const double t_pre = clock.lap();
    WorkerPool pool(cfg, kKvThreads, kKvStreamOps, [&](int w) {
      return [&ops = streams[static_cast<std::size_t>(w)], &corpus, &store,
              out = std::string()](std::size_t i, LayerStamp* ls) mutable {
        const KvOp& o = ops[i];
        const std::string_view key = corpus.key(o.rank);
        if (o.put)
          return !layer_call(ls, SpanName::kKvPut, [&] {
            return store->put(key, corpus.value(o.rank, o.ver));
          });
        return layer_call(ls, SpanName::kKvGet,
                          [&] { return store->get(key, out); }) &&
               corpus.admissible(o.rank, out);
      };
    });
    setup_done(cfg, t_in, t_pre, clock.lap());
    if (cfg.setup_only) {
      pool.cancel();
    } else {
      res.digest = digest.h;
      res.metrics["bench.input_mib"] = (heap_inputs - heap0) / 1048576.0;
      const double rate = pool.warm_up();
      const std::uint64_t mig0 = store->migrated_buckets();
      Snapshot a, b;
      pool.run(stride_for(cfg, rate, 2), a, b);
      std::vector<const WorkerLog*> logs;
      std::vector<const SpanLog*> spans;
      pool.collect(res, logs, spans);
      const PhaseSummary ph = summarize_phase(logs, cfg.rounds);
      phase_metrics(res, ph);
      const double ops = static_cast<double>(ph.ops);
      common_metrics(res, a, b, ops);
      auto& m = res.metrics;
      m["kv.migrations_per_op"] =
          static_cast<double>(store->migrated_buckets() - mig0) / ops;
      m["kv.get_ns_p50"] = span_quantile_ns(spans, {SpanName::kKvGet}, 0.50);
      m["kv.put_ns_p50"] = span_quantile_ns(spans, {SpanName::kKvPut}, 0.50);
      m["kv.put_ns_p99"] = span_quantile_ns(spans, {SpanName::kKvPut}, 0.99);
      footprint_metrics(res, live0, heap_inputs - heap0, logs, spans,
                        static_cast<double>(kRecords));
      SpanLog net_spans;
      run_net_leg(cfg, std::min(cfg.rounds, kNetLegRounds), corpus, *store,
                  net_streams, res, net_spans);
      store_checks(res, *store, kRecords);
      spans.push_back(&net_spans);
      finish_trace(res, cfg, spans);
    }
  }
  check_gauge(res, live0);
  return res;
}

}  // namespace perfbench
