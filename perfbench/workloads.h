// The benchmark's workloads. Each one builds its fixtures through the
// simulator's public harness and endpoint APIs, runs one seeded round, checks
// what was delivered, and reports two clocks: host time (what the simulator
// costs to run) and simulated time (the paper's result).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "host_trace.h"
#include "src/genie/semantics.h"
#include "src/obs/critical_path.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace perfbench {

// Instruments of the traced pass; workloads receive nullptr in untraced
// rounds and then must not attach a trace log or an engine probe.
struct Tracing {
  SpanLog spans;
  EngineProbeTimer probe;
  // Critical-path stage totals over every analysed transfer (simulated us).
  std::array<double, genie::kStageCount> stage_us{};
  std::uint64_t flows = 0;

  // Attributes critical-path stages (the per-flow AnalyzeTrace steps) for
  // at most kMaxAnalysedFlows flows of `log`, evenly spaced, and adds them.
  static constexpr std::size_t kMaxAnalysedFlows = 128;
  void AddCriticalPath(const genie::TraceLog& log);
};

struct RoundResult {
  // --- Host clock ---
  double setup_s = 0;     // building nodes, endpoints, tenants, testbeds
  double measured_s = 0;  // the transfers themselves
  AllocCount allocs;      // heap allocations inside the measured phase
  double verify_read_s = 0;         // the benchmark's AddressSpace::Read checks
  std::uint64_t verified_bytes = 0;

  // --- Outcome accounting (a transfer that never resolves is failed) ---
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      // completed with an error status
  std::uint64_t unresolved = 0;  // neither completed nor failed
  std::vector<std::string> errors;  // correctness violations: fail the run

  // --- Simulated clock; bit-identical for a given seed ---
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over engine digests
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  std::uint64_t latency_samples = 0;
  double delivered_bytes = 0;
  double makespan_us = 0;  // simulated time of the measured phase
  double rx_busy_us = 0;   // receiver CPU busy time within the makespan
  double paper_error_pct = 0;

  // --- Per-layer metrics (names from the catalogue in main.cc) ---
  std::map<std::string, double> counts;  // deterministic for a given seed
  std::map<std::string, double> host;    // host timings (traced pass only)

  void MixDigest(const genie::Engine& engine);
  void AddError(std::string error) { errors.push_back(std::move(error)); }
};

// Sets latency_p50_us / _p99_us / _samples from exact samples.
void SetLatency(RoundResult& r, const std::vector<double>& latencies_us);

RoundResult RunPaperSweep(std::uint64_t seed, Tracing* tracing);
RoundResult RunFabric10k(std::uint64_t seed, Tracing* tracing);
RoundResult RunLossyArqStream(std::uint64_t seed, Tracing* tracing);

// fabric_10k without ARQ, run once outside the measured phase: its
// `unresolved` count is the transfers that park forever (ROADMAP item 4).
RoundResult FabricNoArqUnresolved(std::uint64_t seed);

// paper_error_pct: mean absolute relative error, in percent, of the 60 KB
// equivalent throughput against the paper's Fig. 3 (early demux, aligned)
// and Fig. 7 (pooled, receive buffer at page offset 1000) values. The
// reference values and their provenance live in paper_reference.cc.
enum class PaperFigure : std::uint8_t { kFig3, kFig7 };
inline constexpr std::uint64_t kPaperReferenceBytes = 61440;

double PaperErrorPct(
    const std::function<double(PaperFigure, genie::Semantics)>& simulated_mbps);

// Simulated 60 KB throughput from a stand-alone Experiment pass (the
// paper's five warm repetitions); workloads other than paper_sweep use it.
double ReferencePassMbps(PaperFigure figure, genie::Semantics s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
