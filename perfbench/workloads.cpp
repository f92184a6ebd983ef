#include "workloads.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "hcmm/abft/protect.hpp"
#include "hcmm/algo/api.hpp"
#include "hcmm/analysis/calibration.hpp"
#include "hcmm/cost/model.hpp"
#include "hcmm/matrix/gemm.hpp"
#include "hcmm/runtime/socket_transport.hpp"
#include "hcmm/runtime/spmd_matmul.hpp"
#include "hcmm/runtime/team.hpp"
#include "timed_transport.hpp"

namespace perfbench {
namespace {

using hcmm::Matrix;

constexpr std::uint32_t kSimNodes = 64;
constexpr std::uint32_t kSpmdRanks = 4;

/// Median wall time of @p fn over at least three calls and ~0.5 s.
template <typename Fn>
double median_ms(Fn&& fn) {
  std::vector<double> t;
  double spent = 0.0;
  while (t.size() < 3 || (spent < 500.0 && t.size() < 1000)) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_between(t0, Clock::now()));
    spent += t.back();
  }
  return median(std::move(t));
}

/// Calibrated t_s, t_w, t_c (us) of a 2-rank team.
hcmm::CostParams calibrate_into(Metrics& out, hcmm::rt::Team& team) {
  const hcmm::analysis::Calibration cal = hcmm::analysis::calibrate(team);
  out["cost.ts_us"] = cal.ts_us;
  out["cost.tw_us"] = cal.tw_us;
  out["cost.tc_us"] = cal.tc_us;
  return hcmm::analysis::measured_params(cal);
}

/// The paper's model for one (algorithm, port, n, p) run at the calibrated
/// constants: cost::table2 plus the 2n^3/p * t_c compute term, in ms.
double predict_ms(const hcmm::CostParams& cp, hcmm::algo::AlgoId id,
                  hcmm::PortModel port, std::size_t n, std::uint32_t p) {
  const double dn = static_cast<double>(n);
  const double dp = static_cast<double>(p);
  return (hcmm::cost::table2(id, port, dn, dp).time(cp) +
          2.0 * dn * dn * dn / dp * cp.tc) /
         1000.0;
}

/// cost.predicted_ms and cost.measured_over_predicted from per-config
/// predictions and the untraced samples.
void set_prediction(Metrics& out, const std::vector<double>& predicted_ms,
                    const std::vector<Sample>& untraced) {
  std::vector<double> pred;
  std::vector<double> ratio;
  for (const Sample& s : untraced) {
    pred.push_back(predicted_ms[s.config]);
    ratio.push_back(s.call_ms / predicted_ms[s.config]);
  }
  out["cost.predicted_ms"] = median(std::move(pred));
  out["cost.measured_over_predicted"] = median(std::move(ratio));
}

// ---------------------------------------------------------------------------
// Simulated machine: a fresh Machine with the default pool per multiply.

struct SimConfig {
  std::unique_ptr<hcmm::algo::DistributedMatmul> alg;
  hcmm::PortModel port = hcmm::PortModel::kOnePort;
};

class SimWorkload final : public Workload {
 public:
  SimWorkload(const Matrix& a, const Matrix& b, std::vector<SimConfig> configs)
      : a_(a), b_(b), configs_(std::move(configs)) {}

  [[nodiscard]] std::size_t cycle() const override { return configs_.size(); }

  void setup(Tracer* tracer) override {
    for (std::size_t i = 0; i < cycle(); ++i) (void)multiply(i);
    tracer_ = tracer;
  }

  Product multiply(std::size_t i) override {
    const SimConfig& cfg = configs_[i % configs_.size()];
    hcmm::Machine machine(hcmm::Hypercube::with_nodes(kSimNodes), cfg.port,
                          hcmm::CostParams{150.0, 3.0, 1.0});
    std::optional<SimHooks> hooks;
    if (tracer_ != nullptr) hooks.emplace(*tracer_, machine);
    const auto t0 = Clock::now();
    if (tracer_ != nullptr) tracer_->begin_multiply(tracer_->us(t0));
    std::optional<hcmm::algo::RunResult> res;
    try {
      res.emplace(cfg.alg->run(a_, b_, machine));
    } catch (...) {
      if (tracer_ != nullptr) end_traced(*hooks, tracer_->now_us());
      throw;
    }
    const auto t1 = Clock::now();
    if (tracer_ != nullptr) {
      end_traced(*hooks, tracer_->us(t1));
      const hcmm::PhaseStats tot = res->report.totals();
      counts_["sim.rounds"] += static_cast<double>(tot.rounds);
      counts_["sim.messages"] += static_cast<double>(tot.messages);
      counts_["sim.link_words"] += static_cast<double>(tot.link_words);
      counts_["sim.model_time"] += tot.time();
      counts_["sim.peak_words"] +=
          static_cast<double>(res->report.peak_words_total);
      counts_["sim.words_copied"] += static_cast<double>(tot.words_copied);
      counts_["sim.words_aliased"] += static_cast<double>(tot.words_aliased);
      counts_["sim.checkpoints"] += static_cast<double>(tot.checkpoints);
      counts_["sim.store_ops"] += static_cast<double>(hooks->store_ops());
      counts_["matrix.gemm_flops"] += hooks->gemm_flops();
      ++traced_;
    }
    return {std::move(res->c), ms_between(t0, t1)};
  }

  void traced_counters(Metrics& out) const override {
    for (const auto& [name, total] : counts_) {
      out[name] =
          total / static_cast<double>(std::max<std::size_t>(1, traced_));
    }
  }

  void probes(Metrics& out, const std::vector<Sample>& untraced, double,
              const Checker&) override {
    // The entry point run_gemm_jobs uses for every local block product.
    out["matrix.serial_ms"] =
        median_ms([&] { (void)hcmm::multiply_tiled(a_, b_); });
    // The simulator is one process; its in-process message layer is the
    // mailbox backend, so that is what t_s and t_w are calibrated on.
    hcmm::rt::Team team(2);
    const hcmm::CostParams cp = calibrate_into(out, team);
    std::vector<double> predicted;
    for (const SimConfig& c : configs_) {
      predicted.push_back(
          predict_ms(cp, c.alg->id(), c.port, a_.rows(), kSimNodes));
    }
    set_prediction(out, predicted, untraced);
  }

 private:
  void end_traced(SimHooks& hooks, double end_us) {
    hooks.finish(end_us);
    tracer_->end_multiply(end_us);
  }

  const Matrix& a_;
  const Matrix& b_;
  std::vector<SimConfig> configs_;
  Tracer* tracer_ = nullptr;
  Metrics counts_;
  std::size_t traced_ = 0;
};

std::vector<SimConfig> diag3d_config() {
  std::vector<SimConfig> out;
  out.push_back({hcmm::algo::make_algorithm(hcmm::algo::AlgoId::kDiag3D),
                 hcmm::PortModel::kOnePort});
  return out;
}

/// Every (algorithm, port) pair applicable at n on kSimNodes, bare then
/// ABFT-protected, in the registry's order — what compare_algorithms sweeps.
std::vector<SimConfig> sweep_configs(std::size_t n) {
  std::vector<SimConfig> out;
  for (const hcmm::PortModel port :
       {hcmm::PortModel::kOnePort, hcmm::PortModel::kMultiPort}) {
    for (auto& alg : hcmm::algo::all_algorithms()) {
      if (!alg->supports(port) || !alg->applicable(n, kSimNodes)) continue;
      const hcmm::algo::AlgoId id = alg->id();
      out.push_back({std::move(alg), port});
      out.push_back({hcmm::abft::make_protected(id), port});
    }
  }
  return out;
}

/// acc += now - base for the wire counters the trace reports.
void add_delta(hcmm::rt::WireStats& acc, const hcmm::rt::WireStats& now,
               const hcmm::rt::WireStats& base) {
  acc.frames_sent += now.frames_sent - base.frames_sent;
  acc.payload_bytes += now.payload_bytes - base.payload_bytes;
  acc.retransmits += now.retransmits - base.retransmits;
  acc.crc_rejects += now.crc_rejects - base.crc_rejects;
  acc.heartbeats += now.heartbeats - base.heartbeats;
}

// ---------------------------------------------------------------------------
// SPMD Cannon over an in-process loopback socket team, reused across
// multiplies.

class SocketWorkload final : public Workload {
 public:
  SocketWorkload(const Matrix& a, const Matrix& b) : a_(a), b_(b) {}

  void setup(Tracer* tracer) override {
    team_ = make_team(tracer);
    (void)multiply(0);
    tracer_ = tracer;
    wire0_ = team_->wire_stats();
  }

  Product multiply(std::size_t) override {
    const auto t0 = Clock::now();
    if (tracer_ != nullptr) tracer_->begin_multiply(tracer_->us(t0));
    std::optional<Matrix> c;
    try {
      c.emplace(hcmm::rt::spmd_cannon(*team_, a_, b_));
    } catch (...) {
      if (tracer_ != nullptr) end_traced(tracer_->now_us());
      throw;
    }
    const auto t1 = Clock::now();
    if (tracer_ != nullptr) {
      end_traced(tracer_->us(t1));
      recv_retries_ += static_cast<double>(team_->last_run_recv_retries());
      ++traced_;
    }
    return {std::move(*c), ms_between(t0, t1)};
  }

  void recover() override {
    add_delta(wire_sum_, team_->wire_stats(), wire0_);
    team_.reset();
    team_ = make_team(tracer_);
    wire0_ = team_->wire_stats();
  }

  void traced_counters(Metrics& out) const override {
    hcmm::rt::WireStats w = wire_sum_;
    add_delta(w, team_->wire_stats(), wire0_);
    const double per =
        1.0 / static_cast<double>(std::max<std::size_t>(1, traced_));
    out["runtime.frames_sent"] = static_cast<double>(w.frames_sent) * per;
    out["runtime.payload_bytes"] = static_cast<double>(w.payload_bytes) * per;
    out["runtime.retransmits"] = static_cast<double>(w.retransmits) * per;
    out["runtime.retransmit_ratio"] =
        w.frames_sent == 0 ? 0.0
                           : static_cast<double>(w.retransmits) /
                                 static_cast<double>(w.frames_sent);
    out["runtime.crc_rejects"] = static_cast<double>(w.crc_rejects) * per;
    out["runtime.heartbeats"] = static_cast<double>(w.heartbeats) * per;
    out["runtime.recv_retries"] = recv_retries_ * per;
  }

  void probes(Metrics& out, const std::vector<Sample>& untraced,
              double seconds, const Checker& check) override {
    const std::size_t n = a_.rows();
    // The same multiply on a mailbox team right after the untraced socket
    // loop; the difference of the medians is what the wire costs.
    hcmm::rt::Team mailbox(kSpmdRanks);
    std::vector<double> mail_ms;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    while (mail_ms.size() < 5 || Clock::now() < deadline) {
      const auto t0 = Clock::now();
      const Matrix c = hcmm::rt::spmd_cannon(mailbox, a_, b_);
      mail_ms.push_back(ms_between(t0, Clock::now()));
      (void)check(c);
    }
    std::vector<double> sock_ms;
    for (const Sample& s : untraced) sock_ms.push_back(s.call_ms);
    out["runtime.comm_ms"] =
        median(std::move(sock_ms)) - median(std::move(mail_ms));

    // The entry point every SPMD rank computes its block products with.
    out["matrix.serial_ms"] = median_ms([&] {
      Matrix c(n, n);
      hcmm::gemm_accumulate_fast(a_, b_, c);
    });

    std::vector<double> connect;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      (void)hcmm::rt::make_socket_transport(kSpmdRanks, horizon());
      connect.push_back(ms_between(t0, Clock::now()));
    }
    out["runtime.connect_ms"] = median(std::move(connect));

    hcmm::rt::Team pair(hcmm::rt::make_socket_transport(2, horizon()));
    const hcmm::CostParams cp = calibrate_into(out, pair);
    set_prediction(out,
                   {predict_ms(cp, hcmm::algo::AlgoId::kCannon,
                               hcmm::PortModel::kOnePort, n, kSpmdRanks)},
                   untraced);
  }

 private:
  /// The socket backend's default failure-detector horizon.
  [[nodiscard]] static std::chrono::milliseconds horizon() {
    return hcmm::rt::SocketTransport::Config{}.horizon;
  }

  std::unique_ptr<hcmm::rt::Team> make_team(Tracer* tracer) {
    auto socket = hcmm::rt::make_socket_transport(kSpmdRanks, horizon());
    if (tracer == nullptr) {
      timed_ = nullptr;
      return std::make_unique<hcmm::rt::Team>(std::move(socket));
    }
    auto timed = std::make_unique<TimedTransport>(std::move(socket), *tracer);
    timed_ = timed.get();
    return std::make_unique<hcmm::rt::Team>(std::move(timed));
  }

  void end_traced(double end_us) {
    timed_->end_run(end_us);
    tracer_->end_multiply(end_us);
  }

  const Matrix& a_;
  const Matrix& b_;
  std::unique_ptr<hcmm::rt::Team> team_;
  TimedTransport* timed_ = nullptr;  ///< owned by team_ when tracing
  Tracer* tracer_ = nullptr;
  hcmm::rt::WireStats wire0_;     ///< team_'s counters when tracing began
  hcmm::rt::WireStats wire_sum_;  ///< deltas of teams replaced by recover()
  double recv_retries_ = 0.0;
  std::size_t traced_ = 0;
};

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 != 0 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {
      "sim-3dd-1024", "sim-sweep-64", "spmd-socket-1024", "spmd-socket-64"};
  return names;
}

std::size_t workload_n(std::string_view workload) {
  if (workload == "sim-3dd-1024" || workload == "spmd-socket-1024") return 1024;
  if (workload == "sim-sweep-64" || workload == "spmd-socket-64") return 64;
  return 0;
}

std::unique_ptr<Workload> make_workload(std::string_view name, const Matrix& a,
                                        const Matrix& b) {
  if (name == "sim-3dd-1024") {
    return std::make_unique<SimWorkload>(a, b, diag3d_config());
  }
  if (name == "sim-sweep-64") {
    return std::make_unique<SimWorkload>(a, b, sweep_configs(a.rows()));
  }
  if (name.starts_with("spmd-socket-")) {
    return std::make_unique<SocketWorkload>(a, b);
  }
  throw std::invalid_argument("unknown workload " + std::string(name));
}

std::vector<std::string> lane_names(std::string_view workload) {
  std::vector<std::string> out = {"caller"};
  if (workload.starts_with("spmd-")) {
    for (std::uint32_t r = 0; r < kSpmdRanks; ++r) {
      out.push_back("rank " + std::to_string(r));
    }
  }
  return out;
}

}  // namespace perfbench
