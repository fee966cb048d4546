// paper_sweep: the paper's Section 7 method through the public Testbed.
//
// Closed loop, one datagram in flight, point-to-point link, no ARQ:
// 8 semantics x 15 page-multiple lengths (4-60 KiB) x {early demux with
// aligned receive buffers (Fig. 3), pooled input with the receive buffer at
// page offset 1000 (Fig. 7)}. Each of the 240 points builds its own
// testbed, runs one warm-up transfer and then a seeded number of measured
// repetitions. Every delivered payload is read back and compared.
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "layer_counters.h"
#include "src/harness/experiment.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using genie::InputResult;
using genie::Semantics;

// Mean measured repetitions per point; each point draws its count
// uniformly from [kMeanReps / 2, 3 * kMeanReps / 2].
constexpr std::uint64_t kMeanReps = 60;

struct SweepConfig {
  PaperFigure figure;
  genie::InputBuffering buffering;
  std::uint32_t dst_page_offset;
};
constexpr SweepConfig kConfigs[] = {
    {PaperFigure::kFig3, genie::InputBuffering::kEarlyDemux, 0},
    {PaperFigure::kFig7, genie::InputBuffering::kPooled, 1000},
};

// The byte Testbed::TransferOnce writes at offset `i` of every payload.
std::byte TestbedPayloadByte(std::size_t i) { return static_cast<std::byte>((i * 31 + 7) & 0xFF); }

}  // namespace

RoundResult RunPaperSweep(std::uint64_t seed, Tracing* tracing) {
  RoundResult r;
  SpanLog* spans = tracing != nullptr ? &tracing->spans : nullptr;
  genie::SplitMix64 rng(seed);
  const std::vector<std::uint64_t> lengths = genie::PageMultipleLengths();
  const AllocCount allocs_before = AllocTotals();

  std::vector<double> latencies;
  std::map<std::pair<PaperFigure, Semantics>, double> mbps_60k;
  LayerCounters layer{};
  OpCosts costs{};
  bool measuring = false;
  std::uint64_t measured_xfers = 0;
  double tx_busy_us = 0;
  std::vector<std::byte> readback(lengths.back());

  for (const SweepConfig& sc : kConfigs) {
    for (const Semantics sem : genie::kAllSemantics) {
      for (const std::uint64_t len : lengths) {
        const std::uint64_t reps = rng.Range(kMeanReps / 2, kMeanReps * 3 / 2);
        genie::ExperimentConfig config;
        config.buffering = sc.buffering;
        config.dst_page_offset = sc.dst_page_offset;

        std::unique_ptr<genie::Testbed> bed;
        {
          ScopedSpan span(spans, "harness.build");
          const Clock::time_point t0 = Clock::now();
          bed = std::make_unique<genie::Testbed>(config);
          r.setup_s += SecondsSince(t0);
        }
        auto op_probe = [&costs, &measuring](genie::OpKind op, std::uint64_t,
                                             genie::SimTime cost) {
          if (measuring) {
            costs[static_cast<std::size_t>(op)] += genie::SimTimeToMicros(cost);
          }
        };
        bed->tx().set_op_probe(op_probe);
        bed->rx().set_op_probe(op_probe);
        if (tracing != nullptr) {
          tracing->probe.Attach(bed->engine());
        }

        auto transfer = [&]() -> InputResult {
          ScopedSpan span(spans, "harness.transfer_once");
          if (tracing != nullptr) {
            tracing->probe.Break();
          }
          const Clock::time_point t0 = Clock::now();
          InputResult res;
          {
            AllocWindow window;
            res = bed->TransferOnce(len, sem);
          }
          r.measured_s += SecondsSince(t0);
          ++r.attempted;
          if (res.ok) {
            ++r.completed;
          } else {
            ++r.failed;
          }
          return res;
        };
        auto verify = [&](const InputResult& res) {
          ScopedSpan span(spans, "vm.verify_read");
          const Clock::time_point t0 = Clock::now();
          const std::span<std::byte> out(readback.data(), len);
          const genie::AccessResult read = bed->rx_app().Read(res.addr, out);
          r.verify_read_s += SecondsSince(t0);
          r.verified_bytes += len;
          if (read != genie::AccessResult::kOk || res.bytes != len) {
            r.AddError("paper_sweep: delivered buffer unreadable");
            return;
          }
          for (std::size_t i = 0; i < len; ++i) {
            if (out[i] != TestbedPayloadByte(i)) {
              r.AddError("paper_sweep: " + std::string(genie::SemanticsName(sem)) + " " +
                         std::to_string(len) + " B payload corrupt at byte " +
                         std::to_string(i));
              return;
            }
          }
        };

        verify(transfer());  // warm-up: caches, buffers, region queues

        genie::TraceLog log;
        if (tracing != nullptr) {
          bed->sender().set_trace(&log);
          bed->receiver().set_trace(&log);
        }
        bed->sender().cpu().ResetBusyTime();
        bed->receiver().cpu().ResetBusyTime();
        const genie::SimTime window_start = bed->engine().now();
        double latency_sum = 0;
        measuring = true;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
          const LayerCounters before =
              ReadCounters(bed->engine(), bed->sender(), bed->receiver(), bed->tx(), bed->rx(),
                           bed->tx_app(), bed->rx_app());
          const InputResult res = transfer();
          AddDelta(layer, before,
                   ReadCounters(bed->engine(), bed->sender(), bed->receiver(), bed->tx(),
                                bed->rx(), bed->tx_app(), bed->rx_app()));
          const double latency = genie::SimTimeToMicros(res.completed_at - bed->last_send_time());
          latencies.push_back(latency);
          latency_sum += latency;
          verify(res);
        }
        measuring = false;
        measured_xfers += reps;
        r.delivered_bytes += static_cast<double>(len * reps);
        r.makespan_us += genie::SimTimeToMicros(bed->engine().now() - window_start);
        r.rx_busy_us += genie::SimTimeToMicros(bed->receiver().cpu().busy_time());
        tx_busy_us += genie::SimTimeToMicros(bed->sender().cpu().busy_time());
        if (len == kPaperReferenceBytes) {
          mbps_60k[{sc.figure, sem}] =
              genie::ThroughputMbps(len, latency_sum / static_cast<double>(reps));
        }
        if (tracing != nullptr) {
          tracing->probe.Detach(bed->engine());
          bed->sender().set_trace(nullptr);
          bed->receiver().set_trace(nullptr);
          tracing->AddCriticalPath(log);
        }
        r.MixDigest(bed->engine());
      }
    }
  }

  const AllocCount allocs_after = AllocTotals();
  r.allocs = {allocs_after.calls - allocs_before.calls, allocs_after.bytes - allocs_before.bytes};
  SetLatency(r, latencies);
  r.paper_error_pct = PaperErrorPct(
      [&mbps_60k](PaperFigure f, Semantics s) { return mbps_60k.at({f, s}); });
  PutLayerCounts(layer, measured_xfers, r);
  PutOpCosts(costs, measured_xfers, r);
  const double xfers = static_cast<double>(measured_xfers);
  r.counts["cpu.tx_busy_us_per_xfer"] = tx_busy_us / xfers;
  r.counts["cpu.rx_busy_us_per_xfer"] = r.rx_busy_us / xfers;
  if (tracing != nullptr) {
    const std::vector<double> xfer_us = tracing->spans.DurationsUs("harness.transfer_once");
    r.host["harness.xfer_host_us_p50"] = Quantile(xfer_us, 0.50);
    r.host["harness.xfer_host_us_p99"] = Quantile(xfer_us, 0.99);
  }
  return r;
}

}  // namespace perfbench
