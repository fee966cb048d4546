// Host-time instruments of the benchmark: a steady clock, quantiles, the
// spans the benchmark records around its own calls into each simulator
// layer, and an Engine::set_probe timer for the host cost of each event.
//
// Everything here observes the simulator from outside: spans wrap calls the
// benchmark makes, and the probe only reads the host clock and the engine's
// public queue length (it schedules nothing and draws no randomness, so the
// simulated schedule is unchanged).
#ifndef PERFBENCH_HOST_TRACE_H_
#define PERFBENCH_HOST_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "src/sim/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// On a shared host, speed drifts by tens of percent over seconds to
// minutes (shared caches and cores). The reference kernel is a fixed,
// benchmark-owned workload with the simulator's host profile -- heap-
// allocated callbacks in a time-ordered priority queue, an ordered map,
// small vectors -- but none of its code, so its duration tracks the host's
// current speed and no change to the simulator moves it. The runner scales
// the host-time end-to-end metrics to the speed at which the kernel takes
// kReferenceKernelNominalS.
inline constexpr double kReferenceKernelNominalS = 0.05;
double ReferenceKernelSeconds();

// In-memory span log. Each span has a name, host start and end, and the
// span that was open when it began (its cause); spans are written out as a
// Chrome trace when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
  };

  int Begin(const char* name);
  void End(int id);

  // Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(std::string_view name) const;
  double TotalUs(std::string_view name) const;

  void WriteChromeJson(std::ostream& os) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

// RAII span; a null log records nothing (the untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log), id_(log ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Host nanoseconds between successive Engine::set_probe callbacks, i.e. the
// host cost of running one event (callback plus queue work). Break() starts
// a new interval so time the benchmark spends between its own calls into
// the engine is not charged to an event.
class EngineProbeTimer {
 public:
  void Attach(genie::Engine& engine);
  void Detach(genie::Engine& engine);
  void Break() { have_last_ = false; }

  const std::vector<double>& intervals_ns() const { return intervals_ns_; }
  std::size_t pending_peak() const { return pending_peak_; }

 private:
  std::vector<double> intervals_ns_;
  Clock::time_point last_{};
  bool have_last_ = false;
  std::size_t pending_peak_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_TRACE_H_
