// lossy_arq_stream: two nodes on the point-to-point link with ARQ on, a
// seeded 1% kLinkDrop on the sender's transmit path, and integrated
// checksums. A stream of 56-60 KiB copy datagrams goes through the Endpoint
// submit/completion rings in batches equal to the ARQ window, in two equal
// phases: window 1 (stop-and-wait) and window 16 (selective repeat with
// SACK). Each phase gets its own pair of nodes. Receives are posted at the
// maximum datagram length.
#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "layer_counters.h"
#include "src/genie/endpoint.h"
#include "src/genie/node.h"
#include "src/mem/fault_plan.h"
#include "src/sim/task.h"
#include "src/util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using genie::Endpoint;
using genie::IoStatus;

// Datagram lengths are drawn per datagram from [56 KiB, 60 KiB], so the
// simulated latency quantiles depend on the seed, not only on the loss
// pattern.
constexpr std::uint64_t kMinDatagram = 56 * 1024;
constexpr std::uint64_t kMaxDatagram = 60 * 1024;
constexpr std::uint64_t kPerPhase = 2048;             // datagrams per window phase
constexpr std::uint64_t kSlotStride = 64 * 1024;      // one buffer slot per window entry
constexpr genie::Vaddr kTxBase = 0x10000000;
constexpr genie::Vaddr kRxBase = 0x20000000;
constexpr std::uint64_t kChannel = 1;
constexpr double kDropProbability = 0.01;

struct Phase {
  std::uint32_t window;
  const char* name;
};
constexpr Phase kPhases[] = {{1, "w1"}, {16, "w16"}};

genie::GenieOptions StreamOptions() {
  genie::GenieOptions options;
  options.checksum_mode = genie::ChecksumMode::kIntegrated;
  return options;
}

// Sender and receiver joined by the point-to-point link, ARQ on both.
struct StreamBed {
  StreamBed(std::uint64_t seed, std::uint32_t window)
      : tx(engine, "tx", genie::Node::Config{}),
        rx(engine, "rx", genie::Node::Config{}),
        network(engine, tx, rx),
        tx_ep(tx, kChannel, StreamOptions()),
        rx_ep(rx, kChannel, StreamOptions()),
        tx_app(tx.CreateProcess("app")),
        rx_app(rx.CreateProcess("app")),
        loss(seed ^ 0x10551055ULL) {
    tx_app.CreateRegion(kTxBase, window * kSlotStride);
    rx_app.CreateRegion(kRxBase, window * kSlotStride);
    genie::ReliableOptions reliable;
    reliable.arq = true;
    reliable.window = window;
    reliable.seed = seed;
    tx.EnableReliableDelivery(reliable);
    rx.EnableReliableDelivery(reliable);
    genie::FaultRule drop;
    drop.site = genie::FaultSite::kLinkDrop;
    drop.probability = kDropProbability;
    loss.AddRule(drop);
    loss.set_clock([this] { return engine.now(); });
    tx.adapter().set_fault_plan(&loss);
  }

  genie::Engine engine;
  genie::Node tx;
  genie::Node rx;
  genie::Network network;
  Endpoint tx_ep;
  Endpoint rx_ep;
  genie::AddressSpace& tx_app;
  genie::AddressSpace& rx_app;
  genie::FaultPlan loss;
};

genie::Task<void> DrainRing(Endpoint& ep) { (void)co_await ep.Drain(); }

std::uint64_t IndexMask(std::uint64_t seed) { return genie::SplitMix64(seed).Next(); }

std::uint64_t DatagramLength(std::uint64_t seed, std::uint64_t index) {
  return genie::SplitMix64(seed ^ (index * 0xD1B54A32D192ED03ULL))
      .Range(kMinDatagram, kMaxDatagram);
}

// Payload of datagram `index`: the first word is the masked index, the rest
// 64-bit words from a per-datagram base, so a stale or shifted buffer fails
// the comparison.
void FillPattern(std::span<std::byte> buf, std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t tagged = index ^ IndexMask(seed);
  std::memcpy(buf.data(), &tagged, sizeof(tagged));
  genie::SplitMix64 rng(seed * 0x2545F4914F6CDD1DULL + index);
  std::uint64_t word = rng.Next();
  for (std::size_t off = sizeof(word); off < buf.size(); off += sizeof(word)) {
    std::memcpy(buf.data() + off, &word, std::min(sizeof(word), buf.size() - off));
    word += 0x9E3779B97F4A7C15ULL;
  }
}

}  // namespace

RoundResult RunLossyArqStream(std::uint64_t seed, Tracing* tracing) {
  RoundResult r;
  SpanLog* spans = tracing != nullptr ? &tracing->spans : nullptr;
  const AllocCount allocs_before = AllocTotals();
  std::vector<double> latencies;
  latencies.reserve(kPerPhase * std::size(kPhases));
  LayerCounters layer{};
  OpCosts costs{};
  double tx_busy_us = 0;
  std::vector<std::byte> payload(kMaxDatagram);
  std::vector<std::byte> readback(kMaxDatagram);
  std::vector<double> xfer_host_us;  // ring batch host time per datagram

  for (const Phase& phase : kPhases) {
    const std::string prefix = std::string("reliable.") + phase.name + ".";
    std::unique_ptr<StreamBed> bed;
    {
      ScopedSpan span(spans, "harness.build");
      const Clock::time_point t0 = Clock::now();
      bed = std::make_unique<StreamBed>(seed, phase.window);
      r.setup_s += SecondsSince(t0);
    }
    auto op_probe = [&costs](genie::OpKind op, std::uint64_t, genie::SimTime cost) {
      costs[static_cast<std::size_t>(op)] += genie::SimTimeToMicros(cost);
    };
    bed->tx_ep.set_op_probe(op_probe);
    bed->rx_ep.set_op_probe(op_probe);
    genie::TraceLog log;
    if (tracing != nullptr) {
      bed->tx.set_trace(&log);
      bed->rx.set_trace(&log);
      tracing->probe.Attach(bed->engine);
    }
    const LayerCounters before = ReadCounters(bed->engine, bed->tx, bed->rx, bed->tx_ep,
                                              bed->rx_ep, bed->tx_app, bed->rx_app);
    const genie::SimTime phase_start = bed->engine.now();
    double phase_s = 0;
    std::uint64_t phase_bytes = 0;
    std::vector<Endpoint::SubmitEntry> rx_batch(phase.window);
    std::vector<Endpoint::SubmitEntry> tx_batch(phase.window);
    std::vector<Endpoint::Completion> rx_done;
    std::vector<Endpoint::Completion> tx_done;
    rx_done.reserve(phase.window);
    tx_done.reserve(phase.window);

    bool stream_broken = false;
    for (std::uint64_t first = 0; first < kPerPhase && !stream_broken; first += phase.window) {
      const std::size_t chunk = phase.window;
      for (std::size_t i = 0; i < chunk; ++i) {
        const std::span<std::byte> data(payload.data(), DatagramLength(seed, first + i));
        FillPattern(data, seed, first + i);
        Endpoint::SubmitEntry& in = rx_batch[i];
        in.op = Endpoint::SubmitEntry::Op::kInput;
        in.app = &bed->rx_app;
        in.va = kRxBase + i * kSlotStride;
        in.len = kMaxDatagram;
        in.sem = genie::Semantics::kCopy;
        in.user_data = i;
        Endpoint::SubmitEntry& out = tx_batch[i];
        out = in;
        out.op = Endpoint::SubmitEntry::Op::kOutput;
        out.app = &bed->tx_app;
        out.va = kTxBase + i * kSlotStride;
        out.len = data.size();
        // The application fills its send buffer (timed with the transfer).
        const Clock::time_point t0 = Clock::now();
        if (bed->tx_app.Write(out.va, data) != genie::AccessResult::kOk) {
          r.AddError("lossy_arq_stream: cannot fill the send buffer");
          return r;
        }
        phase_s += SecondsSince(t0);
      }

      genie::SimTime submitted_at = 0;
      bool resolved = false;
      {
        ScopedSpan span(spans, "harness.ring_batch");
        if (tracing != nullptr) {
          tracing->probe.Break();
        }
        const Clock::time_point t0 = Clock::now();
        AllocWindow window;
        // Prepost the receives, let their prepares post to the adapter, then
        // submit the sends as one batch.
        if (bed->rx_ep.SubmitBatch(rx_batch) != chunk) {
          r.AddError("lossy_arq_stream: receive ring refused a batch");
          return r;
        }
        std::move(DrainRing(bed->rx_ep)).Detach();
        (void)bed->engine.RunUntil(
            [&] { return bed->rx.adapter().posted_receives(kChannel) >= chunk; });
        submitted_at = bed->engine.now();
        if (bed->tx_ep.SubmitBatch(tx_batch) != chunk) {
          r.AddError("lossy_arq_stream: send ring refused a batch");
          return r;
        }
        std::move(DrainRing(bed->tx_ep)).Detach();
        resolved = bed->engine.RunUntil([&] {
          return bed->rx_ep.completion_ring_size() >= chunk &&
                 bed->tx_ep.completion_ring_size() >= chunk;
        });
        rx_done.clear();
        tx_done.clear();
        bed->rx_ep.Harvest(&rx_done);
        bed->tx_ep.Harvest(&tx_done);
        const double batch_s = SecondsSince(t0);
        phase_s += batch_s;
        xfer_host_us.insert(xfer_host_us.end(), chunk, batch_s * 1e6 / static_cast<double>(chunk));
      }

      // Under loss, selective repeat can land a batch's datagrams in any of
      // its posted buffers, so each delivered buffer names its datagram by
      // its first word. A transfer completed when its datagram arrived
      // intact exactly once; a send that reports an error failed.
      std::uint64_t batch_ok = 0;
      std::uint64_t batch_failed = 0;
      std::vector<bool> seen(chunk, false);
      for (const Endpoint::Completion& c : tx_done) {
        batch_failed += c.status != IoStatus::kOk ? 1 : 0;
      }
      for (const Endpoint::Completion& c : rx_done) {
        if (c.status != IoStatus::kOk) {
          continue;  // its datagram's send reports the failure
        }
        ScopedSpan span(spans, "vm.verify_read");
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t bytes = std::clamp<std::uint64_t>(c.bytes, 8, kMaxDatagram);
        const std::span<std::byte> got(readback.data(), bytes);
        const genie::AccessResult read = bed->rx_app.Read(c.addr, got);
        std::uint64_t index = 0;
        std::memcpy(&index, got.data(), sizeof(index));
        index ^= IndexMask(seed);
        const bool in_batch = index >= first && index < first + chunk && !seen[index - first] &&
                              c.bytes == DatagramLength(seed, index);
        const std::span<std::byte> want(payload.data(), bytes);
        if (in_batch) {
          FillPattern(want, seed, index);
        }
        r.verify_read_s += SecondsSince(t0);
        r.verified_bytes += bytes;
        if (read != genie::AccessResult::kOk || !in_batch ||
            !std::equal(got.begin(), got.end(), want.begin())) {
          r.AddError("lossy_arq_stream: phase " + std::string(phase.name) + " batch at " +
                     std::to_string(first) + " delivered a corrupt, stale or duplicate buffer");
          continue;
        }
        seen[index - first] = true;
        ++batch_ok;
        phase_bytes += bytes;
        latencies.push_back(genie::SimTimeToMicros(c.completed_at - submitted_at));
      }
      r.attempted += chunk;
      r.completed += batch_ok;
      r.failed += batch_failed;
      r.unresolved += chunk - std::min<std::uint64_t>(chunk, batch_ok + batch_failed);
      // An unresolved batch leaves the ring pipeline wedged: end the phase.
      stream_broken = !resolved;
    }
    {
      // Let trailing acks and timers settle before closing the phase.
      const Clock::time_point t0 = Clock::now();
      AllocWindow window;
      bed->engine.Run();
      phase_s += SecondsSince(t0);
    }
    r.measured_s += phase_s;
    AddDelta(layer, before,
             ReadCounters(bed->engine, bed->tx, bed->rx, bed->tx_ep, bed->rx_ep, bed->tx_app,
                          bed->rx_app));
    r.delivered_bytes += static_cast<double>(phase_bytes);
    r.makespan_us += genie::SimTimeToMicros(bed->engine.now() - phase_start);
    r.rx_busy_us += genie::SimTimeToMicros(bed->rx.cpu().busy_time());
    tx_busy_us += genie::SimTimeToMicros(bed->tx.cpu().busy_time());

    const genie::ReliableDelivery::Stats& rel = bed->tx.reliable().stats();
    const double n = static_cast<double>(kPerPhase);
    r.counts[prefix + "retransmits_per_xfer"] = static_cast<double>(rel.retransmits) / n;
    r.counts[prefix + "timeouts_per_xfer"] = static_cast<double>(rel.timeouts) / n;
    r.counts[prefix + "delivery_ratio"] =
        static_cast<double>(rel.delivered_frames) /
        static_cast<double>(std::max<std::uint64_t>(rel.sequenced_frames + rel.retransmits, 1));
    if (tracing != nullptr) {
      r.host[prefix + "host_us_per_xfer"] = phase_s * 1e6 / n;
      tracing->probe.Detach(bed->engine);
      bed->tx.set_trace(nullptr);
      bed->rx.set_trace(nullptr);
      tracing->AddCriticalPath(log);
    }
    r.MixDigest(bed->engine);
  }

  const AllocCount allocs_after = AllocTotals();
  r.allocs = {allocs_after.calls - allocs_before.calls, allocs_after.bytes - allocs_before.bytes};
  SetLatency(r, latencies);
  const std::uint64_t xfers = std::max<std::uint64_t>(r.completed, 1);
  PutLayerCounts(layer, xfers, r);
  PutOpCosts(costs, xfers, r);
  r.counts["cpu.tx_busy_us_per_xfer"] = tx_busy_us / static_cast<double>(xfers);
  r.counts["cpu.rx_busy_us_per_xfer"] = r.rx_busy_us / static_cast<double>(xfers);
  r.host["harness.xfer_host_us_p50"] = Quantile(xfer_host_us, 0.50);
  r.host["harness.xfer_host_us_p99"] = Quantile(xfer_host_us, 0.99);
  return r;
}

}  // namespace perfbench
