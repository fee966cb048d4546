#include "src/sim/trace.h"

#include <iterator>

#include "src/util/check.h"
#include "src/util/json.h"

namespace genie {

std::string TransferLabel(const TransferKey& key) {
  return (key.dir == TransferDir::kIn ? "in#" : "out#") + std::to_string(key.id) + "[" +
         std::string(SemanticsName(key.sem)) + "]";
}

std::string_view TraceStageName(TraceStage stage) {
  // Indexed by TraceStage, grouped as its declaration is.
  static constexpr std::string_view kNames[] = {
      "",
      "prepare",     "transmit",    "dispose",
      "ack_wait",    "nack_delay",  "window_stall",  "resync_stall",
      "credit_wait", "fabric_wait", "wire",
      "pagein",      "tcow_copy",   "tcow_reenable", "cow_copy",     "zero_fill"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(TraceStage::kZeroFill) + 1);
  return kNames[static_cast<std::size_t>(stage)];
}

std::string TraceLog::Event::Name() const {
  if (!text.empty() || stage == TraceStage::kNone) {
    return text;
  }
  return (key ? TransferLabel(key) + "." : std::string()) + std::string(TraceStageName(stage));
}

void TraceLog::Push(Event e) {
  if (capacity_ != 0 && events_.size() >= 2 * capacity_) {
    const std::size_t excess = events_.size() - capacity_;
    events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(excess));
    dropped_events_ += excess;
  }
  events_.push_back(std::move(e));
}

void TraceLog::Span(const std::string& track, std::string text, const std::string& category,
                    SimTime start, SimTime end, std::uint64_t flow, TraceStage stage) {
  GENIE_CHECK_LE(start, end);
  Push(Event{.track = track, .text = std::move(text), .category = category, .start = start,
             .end = end, .flow = flow, .stage = stage});
}

void TraceLog::Span(const std::string& track, const TransferKey& key, TraceStage stage,
                    const std::string& category, SimTime start, SimTime end,
                    std::uint64_t flow) {
  GENIE_CHECK_LE(start, end);
  Push(Event{.track = track, .category = category, .start = start, .end = end, .flow = flow,
             .key = key, .stage = stage});
}

void TraceLog::Instant(const std::string& track, std::string text, const std::string& category,
                       SimTime at, std::uint64_t flow) {
  Push(Event{.track = track, .text = std::move(text), .category = category, .start = at,
             .end = at, .flow = flow, .instant = true});
}

void TraceLog::Instant(const std::string& track, const TransferKey& key, TraceStage stage,
                       const std::string& category, SimTime at) {
  Push(Event{.track = track, .category = category, .start = at, .end = at, .key = key,
             .stage = stage, .instant = true});
}

void TraceLog::Counter(const std::string& track, const std::string& name,
                       SimTime at, double value) {
  Push(Event{.track = track, .text = name, .category = "counter", .start = at, .end = at,
             .value = value, .counter = true});
}

void TraceLog::RegisterNode(const void* owner, const std::string& name) {
  const auto [it, inserted] = node_owners_.emplace(name, owner);
  GENIE_CHECK(inserted || it->second == owner)
      << "trace track name \"" << name << "\" already registered by another node";
}

void TraceLog::UnregisterNode(const void* owner) {
  for (auto it = node_owners_.begin(); it != node_owners_.end();) {
    if (it->second == owner) {
      it = node_owners_.erase(it);
    } else {
      ++it;
    }
  }
}

void TraceLog::WriteJson(std::ostream& os) const {
  // Assign a stable integer tid per track, in order of first appearance.
  std::map<std::string, int> tids;
  for (const Event& e : events_) {
    tids.emplace(e.track, static_cast<int>(tids.size()) + 1);
  }
  os << "[\n";
  bool first = true;
  // Thread-name metadata so viewers label the tracks.
  for (const auto& [track, tid] : tids) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << R"({"ph":"M","pid":1,"tid":)" << tid << R"(,"name":"thread_name","args":{"name":)";
    WriteJsonString(os, track);
    os << "}}";
  }
  for (const Event& e : events_) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    const double ts_us = SimTimeToMicros(e.start);
    os << R"({"pid":1,"tid":)" << tids[e.track] << R"(,"ts":)" << ts_us << R"(,"name":)";
    WriteJsonString(os, e.Name());
    os << R"(,"cat":)";
    WriteJsonString(os, e.category);
    if (e.counter) {
      os << R"(,"ph":"C","args":{"value":)";
      WriteJsonDouble(os, e.value);
      os << "}}";
    } else if (e.instant) {
      os << R"(,"ph":"i","s":"t"})";
    } else {
      os << R"(,"ph":"X","dur":)" << SimTimeToMicros(e.end - e.start);
      if (e.flow != 0) {
        // Perfetto flow arrows: every span of a flow both accepts and
        // re-emits the same bind_id, chaining them in time order.
        os << R"(,"bind_id":"0x)" << std::hex << e.flow << std::dec
           << R"(","flow_in":true,"flow_out":true)";
      }
      os << "}";
    }
  }
  os << "\n]\n";
}

}  // namespace genie
