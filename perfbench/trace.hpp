#pragma once
// Outside-in span recorder for the traced benchmark run.
//
// Spans live in memory, one vector per lane (lane 0 is the caller thread,
// lane 1 + r is SPMD rank r), and are written once at exit as Chrome
// trace-event JSON.  Every multiply opens a root span on lane 0; the layer
// spans under it come from hooks the library already exposes (SimHooks for
// the simulator, TimedTransport for the SPMD runtime).  Leaf spans are the
// layers' self time; container spans (the root, simulator phases) only
// group them.  Per-multiply totals are folded at end_multiply, so the
// exported span set can be capped without losing any measurement.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hcmm {
class Machine;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  std::uint64_t id = 0;      ///< (lane << 32 | index) + 1
  std::uint64_t parent = 0;  ///< id of the enclosing span; 0 for a root
  std::uint32_t mult = 0;    ///< multiply the span belongs to
  bool leaf = false;         ///< self time of a layer, not a container
};

class Tracer {
 public:
  /// Spans kept for the Chrome trace; multiplies past the cap are
  /// aggregated only.
  static constexpr std::size_t kKeepSpans = 200000;

  /// @p lanes threads that record spans.
  explicit Tracer(std::uint32_t lanes);

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  [[nodiscard]] double now_us() const { return us(Clock::now()); }

  /// Open / close the root span of one multiply (caller thread).
  void begin_multiply(double start_us);
  void end_multiply(double end_us);
  /// Root span of the multiply in flight; 0 between multiplies.
  [[nodiscard]] std::uint64_t root() const noexcept { return root_; }

  /// Container span on @p lane; close() sets its end.
  [[nodiscard]] std::uint64_t open(std::uint32_t lane, const char* name,
                                   double start_us, std::uint64_t parent);
  void close(std::uint64_t id, double end_us);
  /// Self-time span; a lane is only ever written by one thread at a time.
  void leaf(std::uint32_t lane, const char* name, double start_us,
            double end_us, std::uint64_t parent);

  /// Stable storage for a dynamic span name (simulator phase names).
  [[nodiscard]] const char* intern(std::string_view name);

  [[nodiscard]] std::uint32_t multiplies() const noexcept { return mults_; }
  /// Summed duration of every span called @p name, all multiplies.
  [[nodiscard]] double total_ms(std::string_view name) const;
  /// Summed multiply time that no leaf span covers.
  [[nodiscard]] double unattributed_ms() const noexcept {
    return unattributed_us_ / 1000.0;
  }
  [[nodiscard]] double multiply_ms() const noexcept {
    return multiply_us_ / 1000.0;
  }

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write_chrome(const std::string& path,
                    const std::vector<std::string>& lane_names) const;

 private:
  Span& at(std::uint64_t id);

  Clock::time_point epoch_ = Clock::now();
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::size_t> mark_;  ///< per-lane size at begin_multiply
  std::deque<std::string> names_;
  std::map<std::string, double, std::less<>> total_us_;
  double unattributed_us_ = 0.0;
  double multiply_us_ = 0.0;
  std::uint64_t root_ = 0;
  std::uint32_t mults_ = 0;
};

/// Attaches the Machine's phase / schedule / GEMM / semantic observers and
/// the store op observer for one simulated multiply and turns the stream of
/// hook events into lane-0 spans.  The interval before each hook event is
/// attributed by what bounds it:
///   ends at a GEMM-batch callback          -> matrix.gemm
///   starts at a schedule callback          -> sim.deliver
///   ends at a schedule callback            -> coll.build
///   otherwise (staging, job set-up, gather) -> algo.host, or abft.host
///                                             inside an "abft ..." phase
/// Phases become container spans named after the phase.
class SimHooks {
 public:
  SimHooks(Tracer& tracer, hcmm::Machine& machine);
  ~SimHooks();
  SimHooks(const SimHooks&) = delete;
  SimHooks& operator=(const SimHooks&) = delete;

  /// Close the open phase at the end of the multiply call.
  void finish(double end_us);

  [[nodiscard]] std::uint64_t store_ops() const noexcept { return store_ops_; }
  /// Flops (2 per multiply-add) of every GEMM job the run declared.
  [[nodiscard]] double gemm_flops() const noexcept { return gemm_flops_; }

 private:
  enum class Ev : std::uint8_t { kSchedule, kGemm, kOther };
  void on(Ev ev);
  void on_phase(std::string_view name);
  [[nodiscard]] std::uint64_t parent() const {
    return phase_ != 0 ? phase_ : tracer_.root();
  }

  Tracer& tracer_;
  hcmm::Machine& machine_;
  double last_us_ = -1.0;  ///< previous hook event; < 0 before the first
  bool after_schedule_ = false;
  bool abft_phase_ = false;
  std::uint64_t phase_ = 0;
  std::uint64_t store_ops_ = 0;
  double gemm_flops_ = 0.0;
};

}  // namespace perfbench
