#include "src/obs/critical_path.h"

#include <algorithm>
#include <iomanip>
#include <map>

#include "src/util/json.h"
#include "src/util/units.h"

namespace genie {

namespace {

// The stage a span measures, before the first-wire/last-ack-wait refinement.
Stage StageOf(const TraceLog::Event& e) {
  switch (e.stage) {
    case TraceStage::kWire:
      return Stage::kWire;
    case TraceStage::kCreditWait:
      return Stage::kCreditWait;
    case TraceStage::kFabricWait:
      return Stage::kFabricWait;
    case TraceStage::kAckWait:
      return Stage::kAckWait;
    case TraceStage::kNackDelay:
      return Stage::kRetransmit;
    case TraceStage::kWindowStall:
      return Stage::kWindowStall;
    case TraceStage::kDispose:
      return Stage::kDispose;
    case TraceStage::kPrepare:
      return e.key.dir == TransferDir::kIn ? Stage::kReceiverPrepare : Stage::kPrepare;
    default:
      return Stage::kOther;
  }
}

// Higher rank claims an instant covered by several spans. Retransmission
// dominates (it is the cause of every overlap it appears in); real wire time
// beats the sender-side waits that merely contain it; receiver dispose is
// real work, so it beats the sender's concurrent ack wait; a window stall
// (admission blocked behind other transfers' unacked frames) beats the ack
// wait it overlaps, since the stall is the pipelining bottleneck; the
// umbrella ".transmit" span and anything unrecognized rank lowest.
int Rank(Stage stage) {
  switch (stage) {
    case Stage::kRetransmit:
      return 10;
    case Stage::kWire:
      return 9;
    case Stage::kCreditWait:
      return 8;
    // Fabric arbitration sits below the credit wait that may contain it
    // (credits are the end-to-end bottleneck when both overlap) but above
    // dispose: a frame parked in a switch queue is the transfer's live
    // bottleneck, dispose work merely overlaps it.
    case Stage::kFabricWait:
      return 7;
    case Stage::kDispose:
      return 6;
    case Stage::kWindowStall:
      return 5;
    case Stage::kAckWait:
      return 4;
    case Stage::kPrepare:
      return 3;
    case Stage::kReceiverPrepare:
      return 2;
    case Stage::kOther:
      return 1;
  }
  return 0;
}

struct ClassifiedSpan {
  SimTime start = 0;
  SimTime end = 0;
  Stage stage = Stage::kOther;
};

}  // namespace

std::string_view StageName(Stage stage) {
  switch (stage) {
    case Stage::kPrepare:
      return "prepare";
    case Stage::kCreditWait:
      return "credit_wait";
    case Stage::kWire:
      return "wire";
    case Stage::kReceiverPrepare:
      return "receiver_prepare";
    case Stage::kAckWait:
      return "ack_wait";
    case Stage::kRetransmit:
      return "retransmit";
    case Stage::kDispose:
      return "dispose";
    case Stage::kWindowStall:
      return "window_stall";
    case Stage::kFabricWait:
      return "fabric_wait";
    case Stage::kOther:
      return "other";
  }
  return "?";
}

FlowBreakdown AttributeStages(const CausalGraph& graph) {
  FlowBreakdown out;
  out.flow = graph.flow;
  if (graph.key) {
    out.label = TransferLabel(graph.key);
    out.semantics = SemanticsName(graph.key.sem);
  }
  out.start = graph.start();
  out.makespan = graph.makespan();

  // Classify every span. Wire spans after the first, and ack waits before
  // the last, are loss recovery; graph.events is causally ordered, so "first"
  // and "last" are well defined.
  const std::size_t ack_waits =
      std::count_if(graph.events.begin(), graph.events.end(), [](const CausalEvent& e) {
        return !e->instant && e->stage == TraceStage::kAckWait;
      });
  std::vector<ClassifiedSpan> spans;
  bool saw_wire = false;
  std::size_t ack_wait_index = 0;
  for (const CausalEvent& e : graph.events) {
    if (e->instant || e->end <= e->start) {
      continue;
    }
    Stage stage = StageOf(*e.event);
    if (stage == Stage::kWire) {
      stage = saw_wire ? Stage::kRetransmit : Stage::kWire;
      saw_wire = true;
    } else if (stage == Stage::kAckWait && ++ack_wait_index != ack_waits) {
      stage = Stage::kRetransmit;
    }
    spans.push_back(ClassifiedSpan{e->start, e->end, stage});
  }

  // Priority sweep over the flow's elementary intervals: each interval is
  // charged to the highest-ranked span covering it, or kOther when bare.
  // Every nanosecond of the makespan is charged exactly once, so the stage
  // totals sum to the makespan by construction.
  std::vector<SimTime> bounds{out.start, graph.end()};
  for (const ClassifiedSpan& s : spans) {
    bounds.push_back(std::clamp(s.start, out.start, graph.end()));
    bounds.push_back(std::clamp(s.end, out.start, graph.end()));
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const SimTime lo = bounds[i];
    const SimTime hi = bounds[i + 1];
    Stage best = Stage::kOther;
    int best_rank = 0;
    for (const ClassifiedSpan& s : spans) {
      if (s.start <= lo && hi <= s.end && Rank(s.stage) > best_rank) {
        best = s.stage;
        best_rank = Rank(s.stage);
      }
    }
    out.stage_ns[static_cast<std::size_t>(best)] += hi - lo;
  }
  return out;
}

std::vector<FlowBreakdown> AnalyzeTrace(const TraceLog& log) {
  std::vector<FlowBreakdown> out;
  for (const std::uint64_t flow : Flows(log)) {
    out.push_back(AttributeStages(BuildCausalGraph(log, flow)));
  }
  return out;
}

void WriteBreakdownJson(std::ostream& os, const std::vector<FlowBreakdown>& flows) {
  os << "{\"flows\":[";
  bool first = true;
  for (const FlowBreakdown& f : flows) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"flow\":" << f.flow << ",\"label\":";
    WriteJsonString(os, f.label);
    os << ",\"semantics\":";
    WriteJsonString(os, f.semantics);
    os << ",\"start_us\":";
    WriteJsonDouble(os, SimTimeToMicros(f.start));
    os << ",\"makespan_us\":";
    WriteJsonDouble(os, SimTimeToMicros(f.makespan));
    os << ",\"stages\":{";
    for (std::size_t s = 0; s < kStageCount; ++s) {
      if (s != 0) {
        os << ",";
      }
      WriteJsonString(os, StageName(static_cast<Stage>(s)));
      os << ":";
      WriteJsonDouble(os, SimTimeToMicros(f.stage_ns[s]));
    }
    os << "}}";
  }
  os << "\n]}\n";
}

void WriteBreakdownTable(std::ostream& os, const std::vector<FlowBreakdown>& flows) {
  // Group by semantics in first-appearance order (deterministic: the trace
  // is).
  std::vector<std::string> order;
  std::map<std::string, std::vector<const FlowBreakdown*>> groups;
  for (const FlowBreakdown& f : flows) {
    const std::string key = f.semantics.empty() ? "?" : f.semantics;
    if (groups.find(key) == groups.end()) {
      order.push_back(key);
    }
    groups[key].push_back(&f);
  }
  os << std::left << std::setw(22) << "semantics" << std::right << std::setw(4) << "n"
     << std::setw(12) << "total_us";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    os << std::setw(18) << StageName(static_cast<Stage>(s));
  }
  os << "\n";
  const auto mean_us = [](double total_ns, std::size_t n) {
    return SimTimeToMicros(static_cast<SimTime>(total_ns / static_cast<double>(n)));
  };
  for (const std::string& key : order) {
    const auto& group = groups[key];
    double makespan = 0;
    std::array<double, kStageCount> stages{};
    for (const FlowBreakdown* f : group) {
      makespan += static_cast<double>(f->makespan);
      for (std::size_t s = 0; s < kStageCount; ++s) {
        stages[s] += static_cast<double>(f->stage_ns[s]);
      }
    }
    os << std::left << std::setw(22) << key << std::right << std::setw(4) << group.size()
       << std::setw(12) << std::fixed << std::setprecision(2)
       << mean_us(makespan, group.size());
    for (std::size_t s = 0; s < kStageCount; ++s) {
      os << std::setw(18) << mean_us(stages[s], group.size());
    }
    os << "\n";
    os.unsetf(std::ios::fixed);
  }
}

}  // namespace genie
