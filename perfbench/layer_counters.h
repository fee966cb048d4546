// Deterministic per-layer counters read from the simulator's public stats
// (Engine, AddressSpace, PhysicalMemory, Adapter, Endpoint) and turned into
// the per-transfer metrics of the per-layer table.
#ifndef PERFBENCH_LAYER_COUNTERS_H_
#define PERFBENCH_LAYER_COUNTERS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/cost/op_kind.h"
#include "src/genie/endpoint.h"
#include "src/genie/node.h"
#include "src/sim/engine.h"
#include "src/vm/address_space.h"
#include "workloads.h"

namespace perfbench {

enum CounterKind : std::size_t {
  kEvents,
  kFaults,
  kTcowCopies,
  kCoalescedPages,
  kTlbHits,
  kTlbMisses,
  kFrameAllocs,
  kDeferredFrees,
  kBytesCopied,
  kPagesSwapped,
  kCopyConversions,
  kRegionHits,
  kRegionMisses,
  kFramesSent,
  kDropsNoPosted,
  kSackCells,
  kRxDuplicates,
  kCounterKinds,
};
using LayerCounters = std::array<std::uint64_t, kCounterKinds>;

// Simulated microseconds charged per OpKind (Endpoint::set_op_probe).
using OpCosts = std::array<double, genie::kOpKindCount>;

// Adds a node's physical-memory and adapter totals, or a process's VM
// counters, to `c`.
void AddNode(LayerCounters& c, genie::Node& node);
void AddProcess(LayerCounters& c, const genie::AddressSpace::Counters& vm);

// Cumulative counters of one sender/receiver pair.
LayerCounters ReadCounters(genie::Engine& engine, genie::Node& tx, genie::Node& rx,
                           genie::Endpoint& tx_ep, genie::Endpoint& rx_ep,
                           genie::AddressSpace& tx_app, genie::AddressSpace& rx_app);
void AddDelta(LayerCounters& total, const LayerCounters& before, const LayerCounters& after);

// Writes the counter-derived per-layer metrics (per transfer where named so).
void PutLayerCounts(const LayerCounters& c, std::uint64_t xfers, RoundResult& r);
void PutOpCosts(const OpCosts& costs, std::uint64_t xfers, RoundResult& r);
std::string OpCostMetric(std::size_t op);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_COUNTERS_H_
