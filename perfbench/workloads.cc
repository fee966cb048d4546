#include "workloads.h"

#include <algorithm>
#include <string>

#include "layer_counters.h"
#include "src/obs/causal_graph.h"

namespace perfbench {

void Tracing::AddCriticalPath(const genie::TraceLog& log) {
  // Building one flow's causal graph scans the whole log, so a log with
  // thousands of flows is analysed on an evenly spaced sample of them.
  const std::vector<std::uint64_t> all = genie::Flows(log);
  const std::size_t step = (all.size() + kMaxAnalysedFlows - 1) / kMaxAnalysedFlows;
  for (std::size_t i = 0; i < all.size(); i += std::max<std::size_t>(step, 1)) {
    const genie::FlowBreakdown flow = genie::AttributeStages(genie::BuildCausalGraph(log, all[i]));
    for (std::size_t s = 0; s < genie::kStageCount; ++s) {
      stage_us[s] += genie::SimTimeToMicros(flow.stage_ns[s]);
    }
    ++flows;
  }
}

void RoundResult::MixDigest(const genie::Engine& engine) {
  for (const std::uint64_t v : {engine.event_digest(), engine.events_executed()}) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
}

void SetLatency(RoundResult& r, const std::vector<double>& latencies_us) {
  r.latency_p50_us = Quantile(latencies_us, 0.50);
  r.latency_p99_us = Quantile(latencies_us, 0.99);
  r.latency_samples = latencies_us.size();
}

namespace {

// Metric-name stems for each OpKind, in enum order.
constexpr const char* kOpNames[] = {
    "copyin",
    "copyout",
    "zero_fill",
    "reference",
    "unreference",
    "wire",
    "unwire",
    "read_only",
    "invalidate",
    "swap",
    "region_create",
    "region_fill",
    "region_fill_overlay_refill",
    "region_map",
    "region_mark_out",
    "region_mark_in",
    "region_check",
    "region_check_unref_reinstate_mark_in",
    "region_check_unref_mark_in",
    "region_dequeue",
    "region_remove",
    "overlay_allocate",
    "overlay",
    "overlay_deallocate",
    "sender_kernel_fixed",
    "receiver_kernel_fixed",
    "hardware_fixed",
    "network_transfer",
    "bus_transfer",
    "driver_per_byte",
    "checksum_read",
    "checksum_integrated",
};
static_assert(std::size(kOpNames) == genie::kOpKindCount, "one name per OpKind");

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::string OpCostMetric(std::size_t op) {
  return std::string("cost.") + kOpNames[op] + ".sim_us_per_xfer";
}

void AddNode(LayerCounters& c, genie::Node& node) {
  c[kFrameAllocs] += node.vm().pm().total_allocations();
  c[kDeferredFrees] += node.vm().pm().deferred_frees();
  c[kFramesSent] += node.adapter().frames_sent();
  c[kDropsNoPosted] += node.adapter().drops_no_posted_buffer();
  c[kSackCells] += node.adapter().sack_cells_sent();
  c[kRxDuplicates] += node.adapter().rx_duplicate_frames();
}

void AddProcess(LayerCounters& c, const genie::AddressSpace::Counters& vm) {
  c[kFaults] += vm.faults;
  c[kTcowCopies] += vm.tcow_copies;
  c[kCoalescedPages] += vm.coalesced_pages;
  c[kTlbHits] += vm.tlb_hits;
  c[kTlbMisses] += vm.tlb_misses;
}

LayerCounters ReadCounters(genie::Engine& engine, genie::Node& tx, genie::Node& rx,
                           genie::Endpoint& tx_ep, genie::Endpoint& rx_ep,
                           genie::AddressSpace& tx_app, genie::AddressSpace& rx_app) {
  LayerCounters c{};
  c[kEvents] = engine.events_executed();
  AddProcess(c, tx_app.counters());
  AddProcess(c, rx_app.counters());
  AddNode(c, tx);
  AddNode(c, rx);
  for (const genie::Endpoint* ep : {&tx_ep, &rx_ep}) {
    const genie::Endpoint::Stats& s = ep->stats();
    c[kBytesCopied] += s.bytes_copied;
    c[kPagesSwapped] += s.pages_swapped;
    c[kCopyConversions] += s.outputs_converted_to_copy;
    c[kRegionHits] += s.region_cache_hits;
    c[kRegionMisses] += s.region_cache_misses;
  }
  return c;
}

void AddDelta(LayerCounters& total, const LayerCounters& before, const LayerCounters& after) {
  for (std::size_t i = 0; i < kCounterKinds; ++i) {
    total[i] += after[i] - before[i];
  }
}

void PutLayerCounts(const LayerCounters& c, std::uint64_t xfers, RoundResult& r) {
  auto per_xfer = [&](std::size_t i) { return Ratio(c[i], xfers); };
  r.counts["sim.events_per_xfer"] = per_xfer(kEvents);
  r.counts["vm.faults_per_xfer"] = per_xfer(kFaults);
  r.counts["vm.tcow_copies_per_xfer"] = per_xfer(kTcowCopies);
  r.counts["vm.coalesced_pages_per_xfer"] = per_xfer(kCoalescedPages);
  r.counts["vm.tlb_hit_ratio"] = Ratio(c[kTlbHits], c[kTlbHits] + c[kTlbMisses]);
  r.counts["mem.frame_allocs_per_xfer"] = per_xfer(kFrameAllocs);
  r.counts["mem.deferred_frees_per_xfer"] = per_xfer(kDeferredFrees);
  r.counts["endpoint.bytes_copied_per_xfer"] = per_xfer(kBytesCopied);
  r.counts["endpoint.pages_swapped_per_xfer"] = per_xfer(kPagesSwapped);
  r.counts["endpoint.copy_conversions_per_xfer"] = per_xfer(kCopyConversions);
  r.counts["endpoint.region_cache_hit_ratio"] =
      Ratio(c[kRegionHits], c[kRegionHits] + c[kRegionMisses]);
  r.counts["net.frames_per_xfer"] = per_xfer(kFramesSent);
  r.counts["net.drops_no_posted_buffer"] = static_cast<double>(c[kDropsNoPosted]);
  r.counts["net.sack_cells_per_xfer"] = per_xfer(kSackCells);
  r.counts["net.rx_duplicate_frames"] = static_cast<double>(c[kRxDuplicates]);
}

void PutOpCosts(const OpCosts& costs, std::uint64_t xfers, RoundResult& r) {
  for (std::size_t op = 0; op < genie::kOpKindCount; ++op) {
    r.counts[OpCostMetric(op)] = xfers == 0 ? 0.0 : costs[op] / static_cast<double>(xfers);
  }
}

}  // namespace perfbench
