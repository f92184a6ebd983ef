#include "timed_transport.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

TimedTransport::TimedTransport(std::unique_ptr<hcmm::rt::Transport> inner,
                               Tracer& tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      last_us_(inner_->ranks(), 0.0) {}

void TimedTransport::begin_run() {
  inner_->begin_run();
  std::fill(last_us_.begin(), last_us_.end(), tracer_.now_us());
}

void TimedTransport::record(std::uint32_t rank, const char* name, double t0,
                            double t1) {
  // Runs outside a traced multiply (the set-up warm-up) are not recorded.
  if (tracer_.root() == 0) return;
  // Lane 1 + rank is written only by that rank's thread during a run.
  tracer_.leaf(rank + 1, "runtime.rank_busy", last_us_[rank], t0,
               tracer_.root());
  tracer_.leaf(rank + 1, name, t0, t1, tracer_.root());
  last_us_[rank] = t1;
}

void TimedTransport::send(std::uint32_t from, std::uint32_t to,
                          std::uint64_t tag, hcmm::Matrix m) {
  const double t0 = tracer_.now_us();
  inner_->send(from, to, tag, std::move(m));
  record(from, "runtime.send", t0, tracer_.now_us());
}

hcmm::rt::RecvStatus TimedTransport::wait_recv(std::uint32_t to,
                                               std::uint32_t from,
                                               std::uint64_t tag,
                                               std::chrono::milliseconds slice,
                                               hcmm::Matrix* out) {
  const double t0 = tracer_.now_us();
  const hcmm::rt::RecvStatus st = inner_->wait_recv(to, from, tag, slice, out);
  record(to, "runtime.recv_wait", t0, tracer_.now_us());
  return st;
}

hcmm::rt::BarrierStatus TimedTransport::barrier(
    std::uint32_t rank, std::chrono::milliseconds timeout) {
  const double t0 = tracer_.now_us();
  const hcmm::rt::BarrierStatus st = inner_->barrier(rank, timeout);
  record(rank, "runtime.recv_wait", t0, tracer_.now_us());
  return st;
}

void TimedTransport::end_run(double end_us) {
  if (tracer_.root() == 0) return;
  for (const std::uint32_t r : inner_->local_ranks()) {
    tracer_.leaf(r + 1, "runtime.rank_busy", last_us_[r], end_us,
                 tracer_.root());
  }
}

}  // namespace perfbench
