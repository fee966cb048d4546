#include "src/obs/causal_graph.h"

#include <algorithm>
#include <set>

namespace genie {

SimTime CausalGraph::end() const {
  SimTime latest = start();
  for (const CausalEvent& e : events) {
    latest = std::max(latest, e->end);
  }
  return latest;
}

std::vector<std::uint64_t> Flows(const TraceLog& log) {
  std::set<std::uint64_t> seen;
  for (const TraceLog::Event& e : log.events()) {
    if (e.flow != 0) {
      seen.insert(e.flow);
    }
  }
  return std::vector<std::uint64_t>(seen.begin(), seen.end());
}

CausalGraph BuildCausalGraph(const TraceLog& log, std::uint64_t flow) {
  CausalGraph graph;
  graph.flow = flow;

  // Pass 1: events stamped with the flow id. Collect the sender key (the
  // first output event) and every receiver input whose events carry the
  // flow — those inputs' unstamped events are pulled in below.
  std::vector<TransferKey> inputs;
  for (const TraceLog::Event& e : log.events()) {
    if (e.flow != flow) {
      continue;
    }
    graph.events.push_back(CausalEvent{&e, false});
    if (!e.key) {
      continue;
    }
    if (e.key.dir == TransferDir::kOut) {
      if (!graph.key) {
        graph.key = e.key;
      }
    } else if (std::find(inputs.begin(), inputs.end(), e.key) == inputs.end()) {
      inputs.push_back(e.key);
    }
  }

  // Pass 2 (key join): the receiver posts its input before any sender
  // exists, so the prepare span — and any VM instants keyed to the input's
  // context — carry flow 0. They share the input's key with the
  // flow-stamped dispose, which names them as part of this transfer.
  if (!inputs.empty()) {
    for (const TraceLog::Event& e : log.events()) {
      if (e.flow == 0 && e.key &&
          std::find(inputs.begin(), inputs.end(), e.key) != inputs.end()) {
        graph.events.push_back(CausalEvent{&e, true});
      }
    }
  }

  // (start, end, insertion order) is a happens-before linearization: in a
  // discrete-event simulation an effect is never recorded before its cause.
  std::stable_sort(graph.events.begin(), graph.events.end(),
                   [](const CausalEvent& a, const CausalEvent& b) {
                     if (a->start != b->start) {
                       return a->start < b->start;
                     }
                     return a->end < b->end;
                   });
  return graph;
}

}  // namespace genie
