#pragma once
// The benchmark's four workloads, each a closed loop of one caller thread
// with one multiply in flight, driven only through the library's public
// API and with every library default left in place:
//
//   sim-3dd-1024      3-D Diagonal, n=1024, 64-node one-port cube
//   sim-sweep-64      every applicable (algorithm, port) pair at n=64 on 64
//                     nodes, bare and under abft::protect, fresh Machine each
//   spmd-socket-1024  rt::spmd_cannon on 4 loopback socket ranks, n=1024
//   spmd-socket-64    the same at n=64
//
// docs.md in this directory says why each exists and what it stresses.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hcmm/matrix/matrix.hpp"
#include "trace.hpp"

namespace perfbench {

/// Named per-layer values, per multiply unless the name says otherwise.
using Metrics = std::map<std::string, double>;

/// Verifies one product against the oracle and counts it; false = failed.
using Checker = std::function<bool(const hcmm::Matrix&)>;

struct Product {
  hcmm::Matrix c;
  double call_ms = 0.0;  ///< wall time of the multiply call itself
};

/// One multiply's wall times and which configuration of the cycle ran it.
struct Sample {
  std::size_t config = 0;
  double call_ms = 0.0;  ///< the multiply call itself
  double iter_ms = 0.0;  ///< the iteration: call plus the simulator's Machine
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Multiplies in one pass over the workload's configurations.
  [[nodiscard]] virtual std::size_t cycle() const { return 1; }

  /// Everything before the first timed multiply: teams, transport, mesh
  /// connect, and one untimed warm-up pass over the cycle.  With a tracer,
  /// every later multiply is traced.
  virtual void setup(Tracer* tracer) = 0;

  /// Multiply @p i (configuration i % cycle()); throws on failure.
  [[nodiscard]] virtual Product multiply(std::size_t i) = 0;

  /// Continue on a fresh team after a failed multiply.
  virtual void recover() {}

  /// Counter-type per-layer values of the traced multiplies, per multiply.
  virtual void traced_counters(Metrics& out) const = 0;

  /// Side measurements of the traced run: the serial baseline, transport
  /// calibration against the paper's cost model, and (SPMD) connect time
  /// and the socket-minus-mailbox comparison.  @p untraced holds the
  /// untraced samples the prediction is set next to.
  virtual void probes(Metrics& out, const std::vector<Sample>& untraced,
                      double seconds, const Checker& check) = 0;
};

[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// Matrix side of @p workload (0 when unknown).
[[nodiscard]] std::size_t workload_n(std::string_view workload);

/// @p a and @p b must outlive the workload.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const hcmm::Matrix& a,
                                                      const hcmm::Matrix& b);

/// Lane labels for the Chrome trace of @p workload.
[[nodiscard]] std::vector<std::string> lane_names(std::string_view workload);

/// Median of @p v (mean of the middle two for an even count; 0 if empty).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
