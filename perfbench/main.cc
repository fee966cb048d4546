// Benchmark runner: one workload, one seed, a fixed host-time budget.
//
//   perfbench_runner --workload <paper_sweep|fabric_10k|lossy_arq_stream>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// Repeats seeded rounds of the workload until the budget is spent (at least
// kMinRounds). Every round must deliver correct payloads and reproduce the
// first round's event digest, simulated results and per-layer counts
// exactly; untraced rounds must also repeat the same heap-allocation count.
// With --trace 1 a final traced round (TraceLog, Engine probe timer and
// benchmark spans attached) yields the per-layer table. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the exit code is nonzero when any check fails.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "layer_counters.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;

enum class Clocks { kHost, kSimulated, kNone };

struct MetricSpec {
  std::string name;
  std::string unit;
  Clocks clock;
};

// End-to-end metrics (untraced rounds).
const std::vector<MetricSpec> kEndToEnd = {
    {"xfers_per_s", "1/s", Clocks::kHost},
    {"setup_s", "s", Clocks::kHost},
    {"peak_rss_mb", "MB", Clocks::kHost},
    {"resolved_share", "ratio", Clocks::kNone},
    {"sim_latency_p50_us", "us", Clocks::kSimulated},
    {"sim_latency_p99_us", "us", Clocks::kSimulated},
    {"sim_goodput_mbps", "Mbps", Clocks::kSimulated},
    {"sim_rx_cpu_pct", "%", Clocks::kSimulated},
    {"paper_error_pct", "%", Clocks::kSimulated},
};

// Per-layer metrics (traced pass). cost.<op>.sim_us_per_xfer entries are
// appended for every OpKind by PerLayerCatalogue().
const std::vector<MetricSpec> kPerLayer = {
    {"sim.events_per_xfer", "count", Clocks::kNone},
    {"sim.pending_peak", "count", Clocks::kNone},
    {"sim.host_ns_per_event_p50", "ns", Clocks::kHost},
    {"sim.host_ns_per_event_p99", "ns", Clocks::kHost},
    {"host.allocs_per_xfer", "count", Clocks::kNone},
    {"host.alloc_bytes_per_xfer", "B", Clocks::kNone},
    {"harness.build_ms", "ms", Clocks::kHost},
    {"harness.xfer_host_us_p50", "us", Clocks::kHost},
    {"harness.xfer_host_us_p99", "us", Clocks::kHost},
    {"harness.unresolved_xfers", "count", Clocks::kNone},
    {"harness.noarq_unresolved_xfers", "count", Clocks::kNone},
    {"vm.faults_per_xfer", "count", Clocks::kNone},
    {"vm.tcow_copies_per_xfer", "count", Clocks::kNone},
    {"vm.coalesced_pages_per_xfer", "count", Clocks::kNone},
    {"vm.tlb_hit_ratio", "ratio", Clocks::kNone},
    {"vm.verify_read_host_us_per_mib", "us", Clocks::kHost},
    {"mem.frame_allocs_per_xfer", "count", Clocks::kNone},
    {"mem.deferred_frees_per_xfer", "count", Clocks::kNone},
    {"endpoint.bytes_copied_per_xfer", "B", Clocks::kNone},
    {"endpoint.pages_swapped_per_xfer", "count", Clocks::kNone},
    {"endpoint.copy_conversions_per_xfer", "count", Clocks::kNone},
    {"endpoint.region_cache_hit_ratio", "ratio", Clocks::kNone},
    {"cpu.tx_busy_us_per_xfer", "us", Clocks::kSimulated},
    {"cpu.rx_busy_us_per_xfer", "us", Clocks::kSimulated},
    {"net.frames_per_xfer", "count", Clocks::kNone},
    {"net.drops_no_posted_buffer", "count", Clocks::kNone},
    {"net.sack_cells_per_xfer", "count", Clocks::kNone},
    {"net.rx_duplicate_frames", "count", Clocks::kNone},
    {"fabric.wait_us_per_grant", "us", Clocks::kSimulated},
    {"fabric.queue_peak", "count", Clocks::kNone},
    {"fabric.link_busy_pct", "%", Clocks::kSimulated},
    {"reliable.w1.retransmits_per_xfer", "count", Clocks::kNone},
    {"reliable.w1.timeouts_per_xfer", "count", Clocks::kNone},
    {"reliable.w1.delivery_ratio", "ratio", Clocks::kNone},
    {"reliable.w1.host_us_per_xfer", "us", Clocks::kHost},
    {"reliable.w16.retransmits_per_xfer", "count", Clocks::kNone},
    {"reliable.w16.timeouts_per_xfer", "count", Clocks::kNone},
    {"reliable.w16.delivery_ratio", "ratio", Clocks::kNone},
    {"reliable.w16.host_us_per_xfer", "us", Clocks::kHost},
    {"obs.trace_overhead_pct", "%", Clocks::kHost},
};

std::vector<MetricSpec> PerLayerCatalogue() {
  std::vector<MetricSpec> out = kPerLayer;
  for (std::size_t op = 0; op < genie::kOpKindCount; ++op) {
    out.push_back({OpCostMetric(op), "us", Clocks::kSimulated});
  }
  for (std::size_t s = 0; s < genie::kStageCount; ++s) {
    out.push_back({"stage." + std::string(genie::StageName(static_cast<genie::Stage>(s))) +
                       "_us_per_xfer",
                   "us", Clocks::kSimulated});
  }
  return out;
}

const char* ClockName(Clocks c) {
  switch (c) {
    case Clocks::kHost:
      return "host";
    case Clocks::kSimulated:
      return "simulated";
    case Clocks::kNone:
      break;
  }
  return "count";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Everything a round must reproduce exactly for a given seed.
bool SameSimulation(const RoundResult& a, const RoundResult& b) {
  return a.digest == b.digest && a.attempted == b.attempted && a.completed == b.completed &&
         a.failed == b.failed && a.unresolved == b.unresolved &&
         a.latency_p50_us == b.latency_p50_us && a.latency_p99_us == b.latency_p99_us &&
         a.latency_samples == b.latency_samples && a.delivered_bytes == b.delivered_bytes &&
         a.makespan_us == b.makespan_us && a.rx_busy_us == b.rx_busy_us &&
         a.paper_error_pct == b.paper_error_pct && a.counts == b.counts;
}

double XfersPerSecond(const RoundResult& r) {
  return static_cast<double>(r.completed) / r.measured_s;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 0);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') {
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 && !args->workload.empty();
}

void PrintJsonNumber(double v) { std::printf("%.17g", std::isfinite(v) ? v : 0.0); }

int Main(int argc, char** argv) {
  // Keep freed heap memory in the process between rounds instead of handing
  // it back to the kernel, so later rounds do not pay (noisy) page faults
  // for memory the previous round released.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const std::map<std::string, std::function<RoundResult(std::uint64_t, Tracing*)>> workloads = {
      {"paper_sweep", RunPaperSweep},
      {"fabric_10k", RunFabric10k},
      {"lossy_arq_stream", RunLossyArqStream},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const auto& run_round = it->second;

  // --- Untraced rounds: the end-to-end metrics ---
  // The reference kernel runs before the first round and again after any
  // round that ends a second or more after its previous run; each round is
  // scaled by the mean of the two kernel runs around it.
  std::vector<RoundResult> rounds;
  std::vector<std::size_t> kernel_before;  // per round: index into kernel_s
  std::vector<double> kernel_s = {ReferenceKernelSeconds()};
  const Clock::time_point start = Clock::now();
  Clock::time_point last_kernel = start;
  for (bool done = false; !done;) {
    kernel_before.push_back(kernel_s.size() - 1);
    rounds.push_back(run_round(args.seed, nullptr));
    done = static_cast<int>(rounds.size()) >= kMinRounds && SecondsSince(start) >= args.seconds;
    if (done || SecondsSince(last_kernel) >= 1.0) {
      kernel_s.push_back(ReferenceKernelSeconds());
      last_kernel = Clock::now();
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const RoundResult& first = rounds.front();

  std::vector<std::string> problems;
  // The no-ARQ variant of fabric_10k (not measured): its parked transfers.
  std::uint64_t noarq_unresolved = 0;
  if (args.workload == "fabric_10k") {
    const RoundResult noarq = FabricNoArqUnresolved(args.seed);
    for (const std::string& e : noarq.errors) {
      problems.push_back("no-ARQ pass: " + e);
    }
    noarq_unresolved = noarq.unresolved;
    std::printf("no-ARQ pass (ROADMAP item 4): %llu of %llu transfers never resolved\n",
                static_cast<unsigned long long>(noarq.unresolved),
                static_cast<unsigned long long>(noarq.attempted));
  }
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    for (const std::string& e : rounds[i].errors) {
      problems.push_back("round " + std::to_string(i) + ": " + e);
    }
    if (!SameSimulation(first, rounds[i])) {
      problems.push_back("round " + std::to_string(i) +
                         " diverged from round 0 (digest, simulated metric or counter)");
    }
    if (rounds[i].allocs.calls != first.allocs.calls ||
        rounds[i].allocs.bytes != first.allocs.bytes) {
      problems.push_back("round " + std::to_string(i) + " allocation count " +
                         std::to_string(rounds[i].allocs.calls) + " differs from round 0 (" +
                         std::to_string(first.allocs.calls) + ")");
    }
  }

  // Host-time figures per round, raw and scaled to the nominal host speed
  // (slowdown > 1 when the reference kernel ran slower than nominal).
  std::vector<double> rates;
  std::vector<double> setups;
  std::vector<double> scaled_rates;
  std::vector<double> scaled_setups;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const std::size_t k = kernel_before[i];
    const double slowdown = (kernel_s[k] + kernel_s[k + 1]) / 2 / kReferenceKernelNominalS;
    rates.push_back(XfersPerSecond(rounds[i]));
    setups.push_back(rounds[i].setup_s);
    scaled_rates.push_back(rates.back() * slowdown);
    scaled_setups.push_back(setups.back() / slowdown);
  }
  std::map<std::string, double> metrics;
  std::vector<MetricSpec> catalogue;
  if (!args.trace) {
    catalogue = kEndToEnd;
    metrics["xfers_per_s"] = Median(scaled_rates);
    metrics["setup_s"] = Median(scaled_setups);
    metrics["peak_rss_mb"] = peak_rss_mb;
    metrics["resolved_share"] =
        static_cast<double>(first.completed) / static_cast<double>(first.attempted);
    metrics["sim_latency_p50_us"] = first.latency_p50_us;
    metrics["sim_latency_p99_us"] = first.latency_p99_us;
    metrics["sim_goodput_mbps"] = first.delivered_bytes * 8.0 / first.makespan_us;
    metrics["sim_rx_cpu_pct"] = 100.0 * first.rx_busy_us / first.makespan_us;
    metrics["paper_error_pct"] = args.workload == "paper_sweep"
                                     ? first.paper_error_pct
                                     : PaperErrorPct(ReferencePassMbps);
  } else {
    // --- Traced round: the per-layer metrics ---
    catalogue = PerLayerCatalogue();
    Tracing tracing;
    const RoundResult traced = run_round(args.seed, &tracing);
    for (const std::string& e : traced.errors) {
      problems.push_back("traced round: " + e);
    }
    if (!SameSimulation(first, traced)) {
      problems.push_back("traced round diverged from the untraced rounds");
    }
    metrics = traced.counts;
    for (const auto& [name, value] : traced.host) {
      metrics[name] = value;
    }
    const double xfers = static_cast<double>(first.completed);
    metrics["sim.pending_peak"] = static_cast<double>(tracing.probe.pending_peak());
    metrics["sim.host_ns_per_event_p50"] = Quantile(tracing.probe.intervals_ns(), 0.50);
    metrics["sim.host_ns_per_event_p99"] = Quantile(tracing.probe.intervals_ns(), 0.99);
    metrics["host.allocs_per_xfer"] = static_cast<double>(first.allocs.calls) / xfers;
    metrics["host.alloc_bytes_per_xfer"] = static_cast<double>(first.allocs.bytes) / xfers;
    metrics["harness.build_ms"] = tracing.spans.TotalUs("harness.build") / 1e3;
    metrics["harness.unresolved_xfers"] = static_cast<double>(first.unresolved);
    metrics["harness.noarq_unresolved_xfers"] = static_cast<double>(noarq_unresolved);
    metrics["vm.verify_read_host_us_per_mib"] =
        traced.verified_bytes == 0
            ? 0.0
            : traced.verify_read_s * 1e6 / (static_cast<double>(traced.verified_bytes) / 1048576.0);
    for (std::size_t s = 0; s < genie::kStageCount; ++s) {
      metrics["stage." + std::string(genie::StageName(static_cast<genie::Stage>(s))) +
              "_us_per_xfer"] =
          tracing.flows == 0 ? 0.0 : tracing.stage_us[s] / static_cast<double>(tracing.flows);
    }
    const double untraced_rate = Median(rates);
    metrics["obs.trace_overhead_pct"] =
        100.0 * (untraced_rate - XfersPerSecond(traced)) / untraced_rate;
    std::ofstream spans_out(".bench_build/spans_" + args.workload + ".json");
    if (spans_out) {
      tracing.spans.WriteChromeJson(spans_out);
    }
  }

  // Every emitted metric must be catalogued; catalogued metrics that a
  // workload does not exercise read 0.
  for (const auto& [name, value] : metrics) {
    bool known = false;
    for (const MetricSpec& c : catalogue) {
      known = known || c.name == name;
    }
    if (!known) {
      problems.push_back("uncatalogued metric " + name);
    }
  }

  std::printf("workload %s  seed %llu  rounds %zu  attempted %llu  completed %llu  failed %llu"
              "  unresolved %llu  latency samples %llu  event digest %016llx\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), rounds.size(),
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.completed),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.unresolved),
              static_cast<unsigned long long>(first.latency_samples),
              static_cast<unsigned long long>(first.digest));
  std::printf("unscaled host figures: xfers_per_s median %.1f, setup_s median %.6f; "
              "reference kernel median %.4f s (nominal %.4f s)\n",
              Median(rates), Median(setups), Median(kernel_s), kReferenceKernelNominalS);
  for (const MetricSpec& c : catalogue) {
    std::printf("  %-44s %18.6f %-6s %s\n", c.name.c_str(), metrics[c.name], c.unit.c_str(),
                ClockName(c.clock));
  }
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }

  const bool correct = problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(first.attempted * rounds.size()),
              static_cast<unsigned long long>((first.failed + first.unresolved) * rounds.size()));
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", catalogue[i].name.c_str());
    PrintJsonNumber(metrics[catalogue[i].name]);
    std::printf(", \"unit\": \"%s\"}", catalogue[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
