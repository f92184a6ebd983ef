#pragma once
// Timing decorator for the SPMD runtime: an rt::Transport that forwards
// every call to the real backend and records, per rank, the time spent
// inside send (runtime.send), inside wait_recv / barrier (runtime.
// recv_wait), and the rank's time between them (runtime.rank_busy: GEMM,
// block copies, message packing).  begin_run marks the start of a
// multiply; end_run closes every rank's last busy interval at the
// multiply's return, since a rank's final compute step follows its last
// transport call.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hcmm/runtime/transport.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedTransport final : public hcmm::rt::Transport {
 public:
  TimedTransport(std::unique_ptr<hcmm::rt::Transport> inner, Tracer& tracer);

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::uint32_t ranks() const noexcept override {
    return inner_->ranks();
  }
  [[nodiscard]] const std::vector<std::uint32_t>& local_ranks()
      const noexcept override {
    return inner_->local_ranks();
  }
  void begin_run() override;
  void send(std::uint32_t from, std::uint32_t to, std::uint64_t tag,
            hcmm::Matrix m) override;
  [[nodiscard]] hcmm::rt::RecvStatus wait_recv(
      std::uint32_t to, std::uint32_t from, std::uint64_t tag,
      std::chrono::milliseconds slice, hcmm::Matrix* out) override;
  [[nodiscard]] hcmm::rt::BarrierStatus barrier(
      std::uint32_t rank, std::chrono::milliseconds timeout) override;
  void notify_failure(std::uint32_t rank, const std::string& message) override {
    inner_->notify_failure(rank, message);
  }
  [[nodiscard]] std::vector<hcmm::rt::RemoteFailure> remote_failures()
      const override {
    return inner_->remote_failures();
  }
  [[nodiscard]] hcmm::rt::WireStats wire_stats() const override {
    return inner_->wire_stats();
  }

  /// Close each rank's trailing busy interval at @p end_us.
  void end_run(double end_us);

 private:
  /// Record rank @p rank's busy gap up to @p t0 and the call [t0, t1].
  void record(std::uint32_t rank, const char* name, double t0, double t1);

  std::unique_ptr<hcmm::rt::Transport> inner_;
  Tracer& tracer_;
  std::vector<double> last_us_;  ///< per rank: end of its previous call
};

}  // namespace perfbench
