#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "hcmm/sim/machine.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t make_id(std::uint32_t lane, std::size_t index) {
  return ((static_cast<std::uint64_t>(lane) << 32) | index) + 1;
}

/// JSON string body with quotes and control characters escaped.
std::string escaped(std::string_view s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer(std::uint32_t lanes) : lanes_(lanes), mark_(lanes, 0) {}

Span& Tracer::at(std::uint64_t id) {
  const std::uint64_t raw = id - 1;
  return lanes_.at(raw >> 32).at(raw & 0xFFFFFFFFu);
}

void Tracer::begin_multiply(double start_us) {
  ++mults_;
  for (std::size_t l = 0; l < lanes_.size(); ++l) mark_[l] = lanes_[l].size();
  root_ = 0;
  root_ = open(0, "multiply", start_us, 0);
}

std::uint64_t Tracer::open(std::uint32_t lane, const char* name,
                           double start_us, std::uint64_t parent) {
  std::vector<Span>& v = lanes_.at(lane);
  const std::uint64_t id = make_id(lane, v.size());
  v.push_back({name, start_us, start_us, id, parent, mults_, false});
  return id;
}

void Tracer::close(std::uint64_t id, double end_us) { at(id).end_us = end_us; }

void Tracer::leaf(std::uint32_t lane, const char* name, double start_us,
                  double end_us, std::uint64_t parent) {
  if (end_us <= start_us) return;
  std::vector<Span>& v = lanes_[lane];
  // Back-to-back spans of one layer (a run of store ops, say) are one span.
  if (v.size() > mark_[lane] && v.back().leaf && v.back().name == name &&
      v.back().parent == parent && v.back().end_us == start_us) {
    v.back().end_us = end_us;
    return;
  }
  v.push_back({name, start_us, end_us, make_id(lane, v.size()), parent, mults_,
               true});
}

const char* Tracer::intern(std::string_view name) {
  for (const std::string& s : names_) {
    if (s == name) return s.c_str();
  }
  return names_.emplace_back(name).c_str();
}

void Tracer::end_multiply(double end_us) {
  close(root_, end_us);
  const Span& root = at(root_);
  multiply_us_ += root.end_us - root.start_us;

  // Fold this multiply's spans into the per-name totals and measure the
  // part of the root interval no leaf covers (leaves on different lanes
  // overlap, so take their union).
  std::vector<std::pair<double, double>> cover;
  std::size_t kept = 0;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (std::size_t i = mark_[l]; i < lanes_[l].size(); ++i) {
      const Span& s = lanes_[l][i];
      total_us_[s.name] += s.end_us - s.start_us;
      if (s.leaf) cover.emplace_back(s.start_us, s.end_us);
    }
    kept += lanes_[l].size();
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double reach = root.start_us;
  for (auto [lo, hi] : cover) {
    lo = std::max(lo, reach);
    hi = std::min(hi, root.end_us);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  unattributed_us_ += (root.end_us - root.start_us) - covered;

  if (kept > kKeepSpans) {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      lanes_[l].resize(mark_[l]);
    }
  }
  root_ = 0;
}

double Tracer::total_ms(std::string_view name) const {
  const auto it = total_us_.find(name);
  return it == total_us_.end() ? 0.0 : it->second / 1000.0;
}

void Tracer::write_chrome(const std::string& path,
                          const std::vector<std::string>& lane_names) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const char* sep = "";
  for (std::size_t l = 0; l < lanes_.size() && l < lane_names.size(); ++l) {
    os << sep << R"({"ph": "M", "name": "thread_name", "pid": 1, "tid": )" << l
       << R"(, "args": {"name": ")" << escaped(lane_names[l]) << "\"}}";
    sep = ",\n";
  }
  char num[64];
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (const Span& s : lanes_[l]) {
      std::snprintf(num, sizeof num, "%.3f, \"dur\": %.3f", s.start_us,
                    s.end_us - s.start_us);
      os << sep << R"({"ph": "X", "pid": 1, "tid": )" << l << ", \"name\": \""
         << escaped(s.name) << "\", \"ts\": " << num
         << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
         << ", \"multiply\": " << s.mult << "}}";
      sep = ",\n";
    }
  }
  os << "\n]}\n";
}

SimHooks::SimHooks(Tracer& tracer, hcmm::Machine& machine)
    : tracer_(tracer), machine_(machine) {
  machine_.set_phase_observer(
      [this](std::string_view name) { on_phase(name); });
  machine_.set_schedule_observer(
      [this](const hcmm::Schedule&) { on(Ev::kSchedule); });
  machine_.set_gemm_observer([this](std::size_t) { on(Ev::kGemm); });
  machine_.set_semantic_observer([this](const hcmm::SemanticEvent& ev) {
    if (ev.kind == hcmm::SemanticEvent::Kind::kGemm) {
      gemm_flops_ += 2.0 * static_cast<double>(ev.a.rows) *
                     static_cast<double>(ev.a.cols) *
                     static_cast<double>(ev.b.cols);
    }
    on(Ev::kOther);
  });
  machine_.store().set_op_observer([this](const hcmm::StoreEvent&) {
    ++store_ops_;
    on(Ev::kOther);
  });
}

SimHooks::~SimHooks() {
  machine_.set_phase_observer({});
  machine_.set_schedule_observer({});
  machine_.set_gemm_observer({});
  machine_.set_semantic_observer({});
  machine_.store().set_op_observer({});
}

void SimHooks::on(Ev ev) {
  const double now = tracer_.now_us();
  if (last_us_ >= 0.0) {
    const char* name = ev == Ev::kGemm      ? "matrix.gemm"
                       : after_schedule_    ? "sim.deliver"
                       : ev == Ev::kSchedule ? "coll.build"
                       : abft_phase_        ? "abft.host"
                                            : "algo.host";
    tracer_.leaf(0, name, last_us_, now, parent());
  }
  after_schedule_ = ev == Ev::kSchedule;
  last_us_ = now;
}

void SimHooks::on_phase(std::string_view name) {
  on(Ev::kOther);
  if (phase_ != 0) tracer_.close(phase_, last_us_);
  phase_ = tracer_.open(0, tracer_.intern(name), last_us_, tracer_.root());
  abft_phase_ = name.starts_with("abft");
}

void SimHooks::finish(double end_us) {
  if (phase_ != 0) tracer_.close(phase_, end_us);
  phase_ = 0;
}

}  // namespace perfbench
