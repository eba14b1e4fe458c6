// Repository benchmark: runs one workload against the library's
// public API, checks every output, and prints one JSON result line.
//
//   perfbench --workload <kv-update|list-hoh> --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --list-metrics
//   perfbench --self-test
//
// --trace 0 reports the end-to-end metrics; the counted per-layer ratios
// are printed on a '#' line before the result. --trace 1 reports every
// per-layer metric, including the span metrics, and writes the spans to
// DIR/spans-<workload>.tsv.
//
// setup_s comes from fresh copies of this program started with
// --setup-copy, which do the workload's set-up, report it and exit.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
  bool span;          // measured from spans, so only in a traced run
  const char* moves;  // end-to-end metric it should move
  const char* on;     // workloads it applies to
};

constexpr const char* kAll = "kv-update,list-hoh";

// Every metric the benchmark prints. BENCHMARK.json mirrors this list.
constexpr MetricDef kMetrics[] = {
    {"throughput_mops", "Mops/s", true, false, "-", kAll},
    {"req_p50_us", "us", true, false, "-", kAll},
    {"req_p99_us", "us", true, false, "-", kAll},
    {"mem_peak_mib", "MiB", true, false, "-", kAll},
    {"setup_s", "s", true, false, "-", kAll},
    {"ds.contains_ns_p50", "ns", false, true, "req_p50_us", "list-hoh"},
    {"ds.update_ns_p50", "ns", false, true, "req_p50_us", "list-hoh"},
    {"ds.update_ns_p99", "ns", false, true, "req_p99_us", "list-hoh"},
    {"kv.get_ns_p50", "ns", false, true, "req_p50_us", "kv-update"},
    {"kv.put_ns_p50", "ns", false, true, "req_p50_us", "kv-update"},
    {"kv.put_ns_p99", "ns", false, true, "req_p99_us", "kv-update"},
    {"kv.migrations_per_op", "1/op", false, false, "throughput_mops",
     "kv-update"},
    {"tm.commits_per_op", "1/op", false, false, "throughput_mops",
     "list-hoh,kv-update"},
    {"tm.fused_windows_per_op", "1/op", false, false, "throughput_mops",
     "list-hoh,kv-update"},
    {"tm.aborts_per_op", "1/op", false, false, "req_p99_us",
     "list-hoh,kv-update"},
    {"tm.validation_aborts_per_op", "1/op", false, false, "req_p99_us",
     "list-hoh,kv-update"},
    {"tm.quiescence_waits_per_op", "1/op", false, false,
     "throughput_mops,req_p99_us", "kv-update"},
    {"rr.reservation_losses_per_op", "1/op", false, false, "req_p99_us",
     "list-hoh"},
    {"alloc.pool_allocs_per_op", "1/op", false, false, "throughput_mops",
     "kv-update"},
    {"alloc.local_hit_share", "share", false, false, "throughput_mops",
     "kv-update"},
    {"alloc.remote_reclaims_per_op", "1/op", false, false, "throughput_mops",
     "kv-update"},
    {"alloc.heap_bytes_per_record", "B/record", false, false, "mem_peak_mib",
     "kv-update"},
    {"reclaim.live_over_size", "ratio", false, false, "mem_peak_mib", kAll},
    {"net.batch_rtt_us_p50", "us", false, true, "net.req_p50_us",
     "kv-update"},
    {"net.batch_rtt_us_p99", "us", false, true, "net.req_p99_us",
     "kv-update"},
    {"net.flush_us_p50", "us", false, true, "net.req_p50_us", "kv-update"},
    {"net.ops_per_batch", "1/batch", false, false, "net.throughput_mops",
     "kv-update"},
    {"net.fused_op_share", "share", false, false, "net.throughput_mops",
     "kv-update"},
    {"net.batch_txs_per_op", "1/op", false, false, "net.throughput_mops",
     "kv-update"},
    {"net.bytes_in_per_op", "B/op", false, false, "net.throughput_mops",
     "kv-update"},
    {"net.bytes_out_per_op", "B/op", false, false, "net.throughput_mops",
     "kv-update"},
    {"net.max_inflight", "count", false, false, "net.throughput_mops",
     "kv-update"},
    {"net.gen_ns_per_op", "ns", false, true, "none", "kv-update"},
    {"net.gen_busy_share", "share", false, true, "none", "kv-update"},
    {"net.throughput_mops", "Mops/s", false, false, "none", "kv-update"},
    {"net.req_p50_us", "us", false, false, "none", "kv-update"},
    {"net.req_p99_us", "us", false, false, "none", "kv-update"},
    {"net.cpu_us_per_op", "us/op", false, false, "net.throughput_mops",
     "kv-update"},
    {"proc.cpu_us_per_op", "us/op", false, false, "throughput_mops", kAll},
    {"setup.prefill_s", "s", false, false, "setup_s", kAll},
    {"setup.inputs_s", "s", false, false, "setup_s", kAll},
    {"setup.start_s", "s", false, false, "setup_s", kAll},
    {"bench.input_mib", "MiB", false, false, "mem_peak_mib", kAll},
    {"host.steal_ms", "ms", false, false, "none", kAll},
    {"host.ref_loop_ns", "ns", false, false, "none", kAll},
    {"trace.throughput_mops", "Mops/s", false, true, "none", kAll},
    {"phase.throughput_mops", "Mops/s", false, false, "throughput_mops",
     kAll},
    {"phase.req_p50_us", "us", false, false, "req_p50_us", kAll},
    {"phase.req_p99_us", "us", false, false, "req_p99_us", kAll},
};

bool applies(const MetricDef& m, const std::string& workload) {
  const std::string on = std::string(",") + m.on + ",";
  return on.find("," + workload + ",") != std::string::npos;
}

RunResult run_workload(const RunConfig& cfg) {
  if (cfg.workload == "kv-update") return run_kv_update(cfg);
  return run_list_hoh(cfg);
}

/// Set-up timings of every copy: total and its three parts.
struct SetupTimes {
  std::vector<double> total, inputs, prefill, start;
  std::uint64_t copies = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
};

/// Starts this program afresh as a set-up copy of `cfg` and times it from
/// spawn to the line that says its set-up is done, so the figure runs from
/// process start on cold memory. The copy then tears down and checks its
/// Gauge balance; any other exit than 0 counts as a failed check.
void setup_copy(const RunConfig& cfg, SetupTimes& st) {
  ++st.copies;
  int fd[2];
  if (pipe2(fd, O_CLOEXEC) != 0) {
    ++st.failed;
    st.notes.emplace_back("check failed: set-up copy: pipe");
    return;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fd[1], STDOUT_FILENO);
  std::vector<std::string> args{"perfbench", "--setup-copy", "--workload",
                                cfg.workload, "--seed",
                                std::to_string(cfg.seed)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const std::uint64_t t0 = now_ns();
  const int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fd[1]);
  bool ready = false;
  std::FILE* in = fdopen(fd[0], "r");
  char line[512];
  while (rc == 0 && std::fgets(line, sizeof line, in) != nullptr) {
    const std::uint64_t t1 = now_ns();
    double p[3];
    if (!ready && std::sscanf(line, "ready %lf %lf %lf", &p[0], &p[1],
                              &p[2]) == 3) {
      ready = true;
      st.total.push_back(static_cast<double>(t1 - t0) / 1e9);
      st.inputs.push_back(p[0]);
      st.prefill.push_back(p[1]);
      st.start.push_back(p[2]);
    } else if (std::strncmp(line, "# ", 2) == 0) {
      line[std::strcspn(line, "\n")] = '\0';
      st.notes.push_back(std::string("set-up copy: ") + (line + 2));
    }
  }
  std::fclose(in);
  int status = 0;
  const bool exited = rc == 0 && waitpid(pid, &status, 0) == pid &&
                      WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!ready || !exited) {
    ++st.failed;
    st.notes.emplace_back("check failed: set-up copy did not finish cleanly");
  }
}

/// The run: half the set-up copies before the workload's own run and half
/// after it, so that they sample the host at both ends of the run;
/// setup_s and its parts are medians over the copies.
RunResult run_measured(const RunConfig& cfg, int copies) {
  SetupTimes st;
  for (int i = 0; i < copies / 2; ++i) setup_copy(cfg, st);
  RunResult res = run_workload(cfg);
  for (int i = copies / 2; i < copies; ++i) setup_copy(cfg, st);
  res.attempted += st.copies;
  res.failed += st.failed;
  res.notes.insert(res.notes.end(), st.notes.begin(), st.notes.end());
  std::string line = "set-up copies s:";
  for (double t : st.total) line += " " + std::to_string(t);
  res.notes.push_back(line);
  auto& m = res.metrics;
  m["setup_s"] = median(st.total);
  m["setup.inputs_s"] = median(st.inputs);
  m["setup.prefill_s"] = median(st.prefill);
  m["setup.start_s"] = median(st.start);
  m["mem_peak_mib"] = vm_hwm_mib();
  return res;
}

/// Set-up copies per run: the list's set-up takes milliseconds, so it
/// gets more of them.
int setup_copies(const std::string& workload) {
  return workload == "list-hoh" ? 20 : 6;
}

bool known_workload(const std::string& w) {
  return w == "kv-update" || w == "list-hoh";
}

void print_metric_object(const RunResult& res, bool end_to_end, bool spans) {
  bool first = true;
  std::printf("{");
  for (const MetricDef& m : kMetrics) {
    if (m.end_to_end != end_to_end || (!spans && m.span)) continue;
    const auto it = res.metrics.find(m.name);
    const double v = it == res.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, std::isfinite(v) ? v : 0.0, m.unit);
    first = false;
  }
  std::printf("}");
}

int list_metrics() {
  std::printf("# name\tunit\tkind\tmoves\ton\n");
  for (const MetricDef& m : kMetrics)
    std::printf("%s\t%s\t%s\t%s\t%s\n", m.name, m.unit,
                m.end_to_end ? "end_to_end"
                : m.span     ? "per_layer(span)"
                             : "per_layer(counted)",
                m.moves, m.on);
  return 0;
}

// ---- Self-tests -----------------------------------------------------------

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

/// A coordinator that wakes late must not shrink the measured interval:
/// the span runs from the earliest worker start to the latest worker
/// stop, and covers every request any worker ran.
void test_worker_stamped_interval() {
  constexpr int kRounds = 3;
  constexpr std::uint64_t kRoundNs = 20'000'000;
  constexpr std::uint64_t kOpNs = 2'000;
  RoundGrid grid(kRounds, kRoundNs);
  Gate gate;
  std::vector<std::unique_ptr<WorkerLog>> logs(2);
  std::vector<std::uint64_t> ops(2, 0);
  std::vector<std::thread> th;
  for (std::size_t w = 0; w < 2; ++w)
    th.emplace_back([&, w] {
      logs[w] = std::make_unique<WorkerLog>(kRounds);
      SpanLog none;
      std::uint64_t failed = 0;
      gate.wait(1);
      ops[w] = timed_loop(grid, *logs[w], none, 1, failed,
                          [](std::size_t, LayerStamp*) {
                            const std::uint64_t t0 = now_ns();
                            while (now_ns() - t0 < kOpNs) {
                            }
                            return true;
                          });
    });
  gate.open(1);
  // The late coordinator: it stamps only after the work is over.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::uint64_t coord_start = now_ns();
  for (auto& t : th) t.join();
  const std::uint64_t coord_stop = now_ns();
  const PhaseSummary ph = summarize_phase({logs[0].get(), logs[1].get()},
                                          kRounds);
  const double span = static_cast<double>(ph.last - ph.first);
  const double work_per_worker =
      static_cast<double>(std::max(ops[0], ops[1])) * kOpNs;
  bool inside = true;
  for (const auto& log : logs)
    for (const auto& r : log->rounds())
      inside = inside && (r.ops == 0 || (r.first >= ph.first &&
                                         r.last <= ph.last));
  expect(ph.ops == ops[0] + ops[1] && ph.ops > 0,
         "interval: every request is counted");
  expect(inside, "interval: every worker stamp lies inside the span");
  expect(span >= work_per_worker,
         "interval: span covers the busiest worker's work");
  expect(span >= 0.95 * kRounds * kRoundNs,
         "interval: span covers the round grid");
  expect(static_cast<double>(coord_stop - coord_start) < 0.5 * span,
         "interval: a late coordinator stamp would have missed the work");
}

/// Histogram quantiles land within one bucket width (3.2%) of the exact
/// ones, and a value past the top saturates instead of overflowing.
void test_histogram() {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.add(v);
  expect(std::abs(h.quantile(0.50) - 50000) < 0.032 * 50000 &&
             std::abs(h.quantile(0.99) - 99000) < 0.032 * 99000,
         "histogram: p50 and p99 within a bucket of the exact values");
  Histogram big;
  big.add(std::uint64_t{1} << 40);
  expect(big.count() == 1 && big.quantile(0.5) > 2e9,
         "histogram: a value past the top saturates");
}

void test_digests() {
  Digest a, b, c;
  make_kv_streams(7, 2, 4096, 50, 1000, a);
  make_kv_streams(7, 2, 4096, 50, 1000, b);
  make_kv_streams(8, 2, 4096, 50, 1000, c);
  expect(a.h == b.h, "digest: same seed, same kv streams");
  expect(a.h != c.h, "digest: other seed, other kv streams");
  const auto l1 = make_list_inputs(7, 2, 4096);
  const auto l2 = make_list_inputs(7, 2, 4096);
  const auto l3 = make_list_inputs(8, 2, 4096);
  expect(l1.digest == l2.digest, "digest: same seed, same list streams");
  expect(l1.digest != l3.digest, "digest: other seed, other list streams");
}

void test_checker() {
  const KvCorpus corpus(100);
  expect(corpus.admissible(5, corpus.value(5, 0)) &&
             corpus.admissible(5, corpus.value(5, 1)),
         "checker: accepts both values of the key");
  expect(!corpus.admissible(5, corpus.value(6, 0)),
         "checker: flags another key's value");
  const std::string_view v = corpus.value(5, 1);
  expect(!corpus.admissible(5, v.substr(0, v.size() - 1)),
         "checker: flags a truncated value");
  expect(!corpus.admissible(5, std::string(v.size(), 'z')),
         "checker: flags a wrong value of the right length");
}

/// Short runs of every workload at the shipped sizes: outputs check,
/// every metric is emitted and finite, no migration once warm.
void test_workloads() {
  for (const char* w : {"kv-update", "list-hoh"}) {
    for (bool trace : {false, true}) {
      RunConfig cfg;
      cfg.workload = w;
      cfg.seed = 3;
      cfg.rounds = 2;
      cfg.round_ns = 250'000'000;
      cfg.trace = trace;
      cfg.process_start_ns = now_ns();
      const RunResult res = run_measured(cfg, 2);
      const std::string tag =
          std::string(w) + (trace ? " traced" : " untraced") + ": ";
      for (const auto& n : res.notes)
        if (n.rfind("check failed", 0) == 0) std::printf("  %s\n", n.c_str());
      expect(res.failed == 0 && res.attempted > 0,
             (tag + "all checks pass").c_str());
      bool emitted = true;
      bool positive = true;
      for (const MetricDef& m : kMetrics) {
        if (!applies(m, w) || (m.span && !trace)) continue;
        const auto it = res.metrics.find(m.name);
        const bool ok = it != res.metrics.end() && std::isfinite(it->second);
        if (!ok) std::printf("  missing or not finite: %s\n", m.name);
        emitted = emitted && ok;
        if (ok && m.end_to_end && !(it->second > 0)) {
          std::printf("  not positive: %s\n", m.name);
          positive = false;
        }
      }
      expect(emitted, (tag + "every listed metric emitted and finite").c_str());
      expect(positive, (tag + "end-to-end metrics are positive").c_str());
      if (std::string(w) != "list-hoh")
        expect(res.metrics.at("kv.migrations_per_op") == 0.0,
               (tag + "kv.migrations_per_op == 0 once warm").c_str());
    }
  }
}

int self_test() {
  test_worker_stamped_interval();
  test_histogram();
  test_digests();
  test_checker();
  test_workloads();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload kv-update|list-hoh "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       perfbench --list-metrics | --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.process_start_ns = now_ns();
  // Transactional allocations go through the library's thread-caching
  // pool, the allocator the alloc.* metrics observe.
  hohtm::alloc::use_pool(true);
  // A dead connection must fail its checks, not end the process.
  std::signal(SIGPIPE, SIG_IGN);
  int seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--list-metrics") return list_metrics();
    if (a == "--self-test") return self_test();
    if (a == "--setup-copy") {
      cfg.setup_only = true;
      continue;
    }
    if (!has) return usage();
    const char* v = argv[++i];
    if (a == "--workload") cfg.workload = v;
    else if (a == "--seed") cfg.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::atoi(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--out-dir") cfg.out_dir = v;
    else return usage();
  }
  if (cfg.setup_only && known_workload(cfg.workload)) {
    const RunResult res = run_workload(cfg);
    for (const std::string& n : res.notes) std::printf("# %s\n", n.c_str());
    return res.failed == 0 ? 0 : 1;
  }
  if (!known_workload(cfg.workload) || seconds < 1 || seconds > 600 ||
      (trace != 0 && trace != 1))
    return usage();
  cfg.round_ns = 250'000'000;
  cfg.rounds = 4 * seconds;
  cfg.trace = trace == 1;

  RunResult res = run_measured(cfg, setup_copies(cfg.workload));

  std::printf("# workload %s seed %llu trace %d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), trace);
  std::printf("# inputs digest %016llx, %.3f MiB\n",
              static_cast<unsigned long long>(res.digest),
              res.metrics["bench.input_mib"]);
  for (const std::string& n : res.notes) std::printf("# %s\n", n.c_str());
  std::printf("# req_p99_us from >= %llu samples per round\n",
              static_cast<unsigned long long>(res.phase.samples_min_round));
  if (!cfg.trace) {
    std::printf("# counted per-layer: ");
    print_metric_object(res, false, false);
    std::printf("\n");
  }
  const bool correct = res.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  print_metric_object(res, !cfg.trace, true);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
