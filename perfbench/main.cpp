// hcmm_perfbench — the repository benchmark's measuring binary.
//
//   hcmm_perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE] [--setup-only]
//
// --trace 0 times a closed loop of multiplies for S seconds after an
// untimed set-up and prints the end-to-end metrics; --trace 1 alternates
// cycles of an untraced and a traced instance for S seconds and prints the
// per-layer metrics; --setup-only times the set-up alone.  Every product is
// checked against multiply_naive under the ROADMAP error contract
// (8*eps*k*amax*bmax) outside the timed window.  The last line of stdout is
// one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/run.py builds this binary and takes the median set-up time over
// several processes; docs.md defines every metric.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "hcmm/matrix/gemm.hpp"
#include "hcmm/matrix/gemm_verify.hpp"
#include "hcmm/matrix/generate.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using hcmm::Matrix;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"gflops", "GFLOP/s"},       {"mult_ms_trim", "ms"},
    {"cpu_ms_per_mult", "ms"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},       {"verified_share", "share"},
};

constexpr MetricDef kPerLayer[] = {
    {"matrix.gemm_ms", "ms"},
    {"matrix.gemm_gflops", "GFLOP/s"},
    {"matrix.serial_ms", "ms"},
    {"sim.deliver_ms", "ms"},
    {"sim.rounds", "count"},
    {"sim.messages", "count"},
    {"sim.link_words", "words"},
    {"sim.model_time", "model"},
    {"sim.peak_words", "words"},
    {"sim.words_copied", "words"},
    {"sim.words_aliased", "words"},
    {"sim.store_ops", "count"},
    {"sim.checkpoints", "count"},
    {"coll.build_ms", "ms"},
    {"algo.host_ms", "ms"},
    {"abft.encode_ms", "ms"},
    {"abft.verify_ms", "ms"},
    {"runtime.send_ms", "ms"},
    {"runtime.recv_wait_ms", "ms"},
    {"runtime.rank_busy_ms", "ms"},
    {"runtime.comm_ms", "ms"},
    {"runtime.frames_sent", "count"},
    {"runtime.payload_bytes", "bytes"},
    {"runtime.retransmits", "count"},
    {"runtime.retransmit_ratio", "share"},
    {"runtime.crc_rejects", "count"},
    {"runtime.heartbeats", "count"},
    {"runtime.recv_retries", "count"},
    {"runtime.connect_ms", "ms"},
    {"cost.ts_us", "us"},
    {"cost.tw_us", "us"},
    {"cost.tc_us", "us"},
    {"cost.predicted_ms", "ms"},
    {"cost.measured_over_predicted", "ratio"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hcmm_perfbench: %s\n"
               "usage: hcmm_perfbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--setup-only]\n"
               "workloads:",
               why);
  for (const std::string_view w : workload_names()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.size()), w.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      const std::string v = value();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload_n(o.workload) == 0) usage("unknown or missing --workload");
  return o;
}

[[nodiscard]] double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Operand seeds derive from the workload seed alone; the library sees only
/// the generated matrices.
[[nodiscard]] std::uint64_t operand_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + k;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Loop {
  std::vector<Sample> samples;  ///< every multiply that returned
  double wall_ms = 0.0;         ///< timed wall clock, verification excluded
  double cpu_ms = 0.0;          ///< process CPU over the same windows
  std::uint64_t verified = 0;
};

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One whole cycle of multiplies, timed one by one; each product is verified
/// after its timed window closes.
void run_cycle(Workload& w, Loop& loop, const Checker& check, Counts& counts) {
  for (std::size_t k = 0; k < w.cycle(); ++k) {
    ++counts.attempted;
    std::optional<Product> p;
    std::string error;
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    try {
      p.emplace(w.multiply(k));
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double iter_ms = ms_between(t0, Clock::now());
    loop.cpu_ms += process_cpu_ms() - cpu0;
    loop.wall_ms += iter_ms;
    if (!p) {
      ++counts.failed;
      std::fprintf(stderr, "multiply %zu of the cycle failed: %s\n", k,
                   error.c_str());
      w.recover();
      continue;
    }
    loop.samples.push_back({k, p->call_ms, iter_ms});
    if (check(p->c)) ++loop.verified;
  }
}

[[nodiscard]] auto deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration<double>(seconds);
}

[[nodiscard]] std::vector<double> call_times(const Loop& loop) {
  std::vector<double> v;
  v.reserve(loop.samples.size());
  for (const Sample& s : loop.samples) v.push_back(s.call_ms);
  return v;
}

/// Typical wall time of one multiply: for each configuration of the cycle,
/// the mean of @p time over its fastest 80% of multiplies, averaged over the
/// configurations.  A shared 4-vCPU VM switches between a fast and a 25-35%
/// slower state every few seconds, so a median snaps to whichever state held
/// just over half of the run, while a mean moves in proportion.
/// Dropping the slowest fifth keeps scheduler stalls, which dominate the
/// plain mean of spmd-socket-64, out of it.
[[nodiscard]] double trimmed_ms(const Loop& loop, std::size_t cycle,
                                double Sample::*time) {
  std::vector<std::vector<double>> per(cycle);
  for (const Sample& s : loop.samples) per[s.config].push_back(s.*time);
  double sum = 0.0;
  for (std::vector<double>& v : per) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const auto keep = static_cast<std::ptrdiff_t>(
        std::max<std::size_t>(1, v.size() * 4 / 5));
    sum += std::accumulate(v.begin(), v.begin() + keep, 0.0) /
           static_cast<double>(keep);
  }
  return sum / static_cast<double>(cycle);
}

/// The median, and the highest of p90/p99/p99.9 with at least ten samples
/// beyond it.
void print_tail(std::vector<double> v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  double q = 0.5;
  for (const double cand : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(v.size()) * (1.0 - cand) >= 10.0) q = cand;
  }
  const auto idx = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          1);
  std::printf("informational, ungated: median %.4f ms, p%g %.4f ms over %zu "
              "samples\n",
              median(v), q * 100.0, v[idx], v.size());
}

void print_result(const Counts& c, const MetricDef* defs, std::size_t ndefs,
                  const Metrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              c.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.failed));
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

void print_table(const MetricDef* defs, std::size_t ndefs,
                 const Metrics& values) {
  for (std::size_t i = 0; i < ndefs; ++i) {
    const auto it = values.find(defs[i].name);
    std::printf("  %-32s %16.6g %s\n", defs[i].name,
                it == values.end() ? 0.0 : it->second, defs[i].unit);
  }
}

int run(const Options& opt) {
  const std::size_t n = workload_n(opt.workload);
  const Matrix a = hcmm::random_matrix(n, n, operand_seed(opt.seed, 1));
  const Matrix b = hcmm::random_matrix(n, n, operand_seed(opt.seed, 2));
  std::unique_ptr<Workload> w = make_workload(opt.workload, a, b);

  // Set-up: GEMM dispatch and its self-test, teams and transport, and the
  // untimed warm-up pass.  Operand and oracle generation are the
  // benchmark's own and stay outside.
  const auto s0 = Clock::now();
  const hcmm::GemmIdent gemm = hcmm::gemm_ident();
  const hcmm::GemmIdent vec = hcmm::gemm_vector_ident();
  w->setup(nullptr);
  const double setup_s = ms_between(s0, Clock::now()) / 1000.0;
  if (opt.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %u, \"build_type\": \"%s\", "
              "\"gemm_ident\": {\"path\": \"%s\", \"isa\": \"%s\", "
              "\"tile\": \"%zux%zu\"}, \"gemm_vector_ident\": {\"path\": "
              "\"%s\", \"isa\": \"%s\", \"tile\": \"%zux%zu\"}, "
              "\"multiplies_per_cycle\": %zu}}\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              gemm.path.c_str(), gemm.isa.c_str(), gemm.mr, gemm.nr,
              vec.path.c_str(), vec.isa.c_str(), vec.mr, vec.nr, w->cycle());

  const Matrix oracle = hcmm::multiply_naive(a, b);
  const double amax = hcmm::max_abs(a);
  const double bmax = hcmm::max_abs(b);
  Counts counts;
  const Checker check = [&](const Matrix& c) {
    if (hcmm::compare_gemm(c, oracle, n, amax, bmax).ok) return true;
    ++counts.failed;
    std::fprintf(stderr, "product outside the error contract\n");
    return false;
  };
  const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                       static_cast<double>(n);

  if (!opt.trace) {
    Loop loop;
    const auto deadline = deadline_after(opt.seconds);
    do {
      run_cycle(*w, loop, check, counts);
    } while (Clock::now() < deadline);
    const std::vector<double> calls = call_times(loop);
    const double verified = static_cast<double>(loop.verified);
    const double verified_share =
        verified / static_cast<double>(counts.attempted);
    // The rate of the typical iteration, scaled by the verified share.  The
    // whole-loop rate is dominated by scheduler stalls on a shared host, so
    // it is printed for information only.
    const double iter_ms = trimmed_ms(loop, w->cycle(), &Sample::iter_ms);
    Metrics m;
    m["gflops"] = verified_share * flops / (iter_ms * 1e6);
    m["mult_ms_trim"] = trimmed_ms(loop, w->cycle(), &Sample::call_ms);
    m["cpu_ms_per_mult"] = loop.cpu_ms / std::max(1.0, verified);
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = peak_rss_mb();
    m["verified_share"] = verified_share;
    print_tail(calls);
    std::printf("whole-loop rate (informational, ungated): %.6g GFLOP/s over "
                "%.1f s timed\n",
                flops * verified / (loop.wall_ms * 1e6), loop.wall_ms / 1000.0);
    std::printf("failed_share = %.6g (%llu of %llu)\n",
                static_cast<double>(counts.failed) /
                    static_cast<double>(counts.attempted),
                static_cast<unsigned long long>(counts.failed),
                static_cast<unsigned long long>(counts.attempted));
    print_table(kEndToEnd, std::size(kEndToEnd), m);
    print_result(counts, kEndToEnd, std::size(kEndToEnd), m);
    return 0;
  }

  // Traced run: an untraced and a traced instance alternate cycle by cycle,
  // so drift of a shared host hits both sides of trace.overhead_pct alike;
  // the side probes follow.
  const std::vector<std::string> lanes = lane_names(opt.workload);
  Tracer tracer(static_cast<std::uint32_t>(lanes.size()));
  std::unique_ptr<Workload> tw = make_workload(opt.workload, a, b);
  tw->setup(&tracer);
  Loop plain;
  Loop traced;
  const auto deadline = deadline_after(opt.seconds);
  do {
    run_cycle(*w, plain, check, counts);
    run_cycle(*tw, traced, check, counts);
  } while (Clock::now() < deadline);
  Metrics m;
  tw->traced_counters(m);
  const Checker probe_check = [&](const Matrix& c) {
    ++counts.attempted;
    return check(c);
  };
  w->probes(m, plain.samples, opt.seconds / 4.0, probe_check);

  // Span totals per traced multiply; runtime spans are summed over ranks.
  constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
      {"matrix.gemm_ms", "matrix.gemm"},
      {"sim.deliver_ms", "sim.deliver"},
      {"coll.build_ms", "coll.build"},
      {"algo.host_ms", "algo.host"},
      {"abft.encode_ms", "abft encode"},
      {"abft.verify_ms", "abft verify"},
      {"runtime.send_ms", "runtime.send"},
      {"runtime.recv_wait_ms", "runtime.recv_wait"},
      {"runtime.rank_busy_ms", "runtime.rank_busy"},
  };
  const double per =
      1.0 / std::max(1.0, static_cast<double>(tracer.multiplies()));
  for (const auto& [metric, span] : kSpanMetrics) {
    m[metric] = tracer.total_ms(span) * per;
  }
  const double gemm_ms = m["matrix.gemm_ms"];
  m["matrix.gemm_gflops"] =
      gemm_ms > 0.0 ? m["matrix.gemm_flops"] / (gemm_ms * 1e6) : 0.0;
  m["trace.unattributed_ms"] = tracer.unattributed_ms() * per;
  const double plain_ms = trimmed_ms(plain, w->cycle(), &Sample::call_ms);
  const double traced_ms = trimmed_ms(traced, tw->cycle(), &Sample::call_ms);
  m["trace.overhead_pct"] = (traced_ms - plain_ms) / plain_ms * 100.0;

  if (!opt.trace_out.empty()) {
    tracer.write_chrome(opt.trace_out, lanes);
    std::printf("trace: %s (%u multiplies traced)\n", opt.trace_out.c_str(),
                tracer.multiplies());
  }
  // Each layer's share of the mean traced multiply (per rank for runtime
  // spans), and the wire's share of the untraced median.
  const double mult_ms = tracer.multiply_ms() * per;
  const double ranks = static_cast<double>(lanes.size() - 1);
  std::printf("shares of the traced multiply (%.4f ms):", mult_ms);
  for (const auto& [metric, span] : kSpanMetrics) {
    const bool runtime = std::string_view(metric).starts_with("runtime.");
    const double share = m[metric] / (runtime ? ranks : 1.0) / mult_ms;
    if (share > 0.0) std::printf(" %s %.1f%%", span, 100.0 * share);
  }
  std::printf(" unattributed %.1f%%\n",
              100.0 * m["trace.unattributed_ms"] / mult_ms);
  if (m["runtime.comm_ms"] > 0.0) {
    std::printf("runtime.comm_ms / untraced median multiply = %.1f%%\n",
                100.0 * m["runtime.comm_ms"] / median(call_times(plain)));
  }
  print_table(kPerLayer, std::size(kPerLayer), m);
  print_result(counts, kPerLayer, std::size(kPerLayer), m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(HCMM_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  constexpr bool kSanitized = true;
#else
  constexpr bool kSanitized = false;
#endif
  if (kSanitized) {
    std::fprintf(stderr,
                 "hcmm_perfbench: refusing to time a sanitizer build\n");
    return 3;
  }
  const Options opt = parse(argc, argv);
  // ru_maxrss survives execve, so a process started by a larger parent
  // (run.py's Python) would report the parent's footprint as its peak.
  // Measure in a child forked before anything is allocated instead.
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("hcmm_perfbench: fork");
    return 1;
  }
  if (pid > 0) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) return 1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
  }
  // Whoever kills the parent stops the measurement too.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) return 1;
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcmm_perfbench: %s\n", e.what());
    return 1;
  }
}
