// Causal graph reconstruction from a TraceLog.
//
// Every trace event stamped with a flow id (minted by Engine::NextFlowId at
// the sending endpoint) belongs to exactly one end-to-end transfer, whatever
// node it was recorded on. This module gathers a flow's events from a
// process-wide log, orders them causally, and exposes the per-transfer view
// the critical-path analyzer consumes.
//
// Receiver prepares are the one stage a flow id cannot reach: the input is
// posted before any sender exists, so its prepare span carries flow 0. It is
// joined by transfer key instead — the receiver's dispose span *does* carry
// the flow id, and every event carrying that dispose's TransferKey (its
// prepare, and the VM instants of its context) belongs to the same input
// operation. The key names the receiving endpoint as well as the input's
// number, so inputs of different endpoints never join each other's flows.
#ifndef GENIE_SRC_OBS_CAUSAL_GRAPH_H_
#define GENIE_SRC_OBS_CAUSAL_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/sim/trace.h"

namespace genie {

// One node of a flow's causal graph: a trace event plus where it came from.
// The event lives in the log the graph was built from, which must outlive
// the graph and stay unmodified while the graph is in use.
struct CausalEvent {
  const TraceLog::Event* event = nullptr;
  // True for events pulled in by the key join (receiver prepare) rather
  // than a flow stamp.
  bool label_joined = false;

  const TraceLog::Event* operator->() const { return event; }
};

// A flow's reconstructed causal graph. Events are sorted by (start, end,
// insertion order), which in a discrete-event simulation is a valid
// linearization of happens-before: an effect can never be recorded earlier
// than its cause.
struct CausalGraph {
  std::uint64_t flow = 0;
  // The originating output's key; empty if the flow has no endpoint-level
  // spans (e.g. a raw adapter test).
  TransferKey key;
  std::vector<CausalEvent> events;

  SimTime start() const { return events.empty() ? 0 : events.front()->start; }
  SimTime end() const;
  SimTime makespan() const { return end() - start(); }
};

// All flow ids present in `log`, ascending (deterministic enumeration order).
std::vector<std::uint64_t> Flows(const TraceLog& log);

// Reconstructs `flow`'s graph from `log`: every event stamped with the flow
// id, plus (key join) every event of any receiver input whose dispose
// carries it.
CausalGraph BuildCausalGraph(const TraceLog& log, std::uint64_t flow);

}  // namespace genie

#endif  // GENIE_SRC_OBS_CAUSAL_GRAPH_H_
