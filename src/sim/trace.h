// Execution tracing for the discrete-event simulation, exportable as
// Chrome trace-event JSON (chrome://tracing, Perfetto). Tracks are free-form
// strings (one per CPU, link, or actor); spans carry a name and category.
//
// Events the analyzers consume are typed: they carry the TransferKey of the
// endpoint transfer they belong to and the TraceStage they measure, and their
// display name ("out#1[copy].prepare") is formatted only when written out.
// Everything else (drops, acks, crash marks) is a free-text event.
//
// Tracing is opt-in: a null/disabled TraceLog makes every hook a no-op.
#ifndef GENIE_SRC_SIM_TRACE_H_
#define GENIE_SRC_SIM_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/genie/semantics.h"
#include "src/util/units.h"

namespace genie {

enum class TransferDir : std::uint8_t { kOut, kIn };

// Identity of one endpoint transfer: the endpoint (node and channel), its
// per-endpoint transfer number, the direction and the semantics it was
// labelled with. Two endpoints number their transfers independently, so only
// the whole key — never the label — names one transfer within a log.
struct TransferKey {
  const void* node = nullptr;
  std::uint64_t channel = 0;
  std::uint64_t id = 0;  // 0 = no transfer
  TransferDir dir = TransferDir::kOut;
  Semantics sem = Semantics::kCopy;

  explicit operator bool() const { return id != 0; }
  bool operator==(const TransferKey&) const = default;
};
static_assert(std::is_trivially_copyable_v<TransferKey>);

// "out#3[emulated copy]": the display label of `key`, the one place the label
// format lives.
std::string TransferLabel(const TransferKey& key);

// What a typed event measures.
enum class TraceStage : std::uint8_t {
  kNone,  // free-text event
  // Endpoint transfer phases.
  kPrepare, kTransmit, kDispose,
  // Reliable-delivery waits.
  kAckWait, kNackDelay, kWindowStall, kResyncStall,
  // Adapter: flow-control credit, link arbitration, wire occupancy.
  kCreditWait, kFabricWait, kWire,
  // VM fault-handler work done on a transfer's behalf.
  kPagein, kTcowCopy, kTcowReenable, kCowCopy, kZeroFill,
};

std::string_view TraceStageName(TraceStage stage);

class TraceLog {
 public:
  struct Event {
    std::string track;
    // Free-text name; empty for typed events, whose name is formatted from
    // `key` and `stage` (see Name()).
    std::string text{};
    std::string category;
    SimTime start = 0;
    SimTime end = 0;  // == start for instants
    // Causal flow id (0 = none). Spans of one end-to-end transfer — sender
    // stages, wire occupancy, receiver stages, ARQ control events — share a
    // flow id, which the causal-graph analyzer joins into one DAG and
    // WriteJson exports as Perfetto flow arrows (bind_id).
    std::uint64_t flow = 0;
    // Counter samples render as Perfetto counter tracks ("ph":"C") — one
    // value per (track, name) series per timestamp. Counters carry flow 0 and
    // no transfer key, so the causal-graph/critical-path analyzers ignore
    // them.
    double value = 0;
    TransferKey key{};  // the transfer this event belongs to, if any
    TraceStage stage = TraceStage::kNone;
    bool instant = false;
    bool counter = false;

    // The display name: `text`, or "<label>.<stage>" for a typed event of a
    // transfer, or "<stage>" for one outside any transfer.
    std::string Name() const;
  };

  // Records a completed span [start, end) on `track`. A free-text span may
  // still name the stage it measures (the adapter's wire spans do).
  void Span(const std::string& track, std::string text, const std::string& category,
            SimTime start, SimTime end, std::uint64_t flow = 0,
            TraceStage stage = TraceStage::kNone);
  // Records `stage` of transfer `key` (an empty key: of no transfer).
  void Span(const std::string& track, const TransferKey& key, TraceStage stage,
            const std::string& category, SimTime start, SimTime end, std::uint64_t flow = 0);

  // Records an instantaneous event.
  void Instant(const std::string& track, std::string text, const std::string& category,
               SimTime at, std::uint64_t flow = 0);
  void Instant(const std::string& track, const TransferKey& key, TraceStage stage,
               const std::string& category, SimTime at);

  // Records one sample of counter series `name` on `track`. Perfetto renders
  // consecutive samples of a series as a stepped area chart under the spans.
  void Counter(const std::string& track, const std::string& name, SimTime at,
               double value);

  std::size_t event_count() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }
  void Clear() {
    events_.clear();
    dropped_events_ = 0;
  }

  // Ring mode: bound the log to roughly the last `capacity` events (0 =
  // unbounded, the default). Eviction is amortized — the buffer is allowed to
  // grow to 2x capacity before the oldest half is discarded in one move — so
  // an always-on flight recorder costs O(1) per event and no allocation churn
  // in steady state.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped_events() const { return dropped_events_; }

  // Track-name ownership: a process-wide log shared by several nodes must not
  // let two distinct components claim the same track name (their events would
  // interleave on one lane, silently corrupting per-node analysis). Each
  // owner registers the names it will emit under; claiming a name someone
  // else holds aborts (construction-time misuse, same policy as the rest of
  // the library). Re-registering one's own name is a no-op.
  void RegisterNode(const void* owner, const std::string& name);
  void UnregisterNode(const void* owner);
  // Expires when this log is destroyed, so an owner that may outlive the
  // log knows whether it still has names to give back.
  std::weak_ptr<const void> lifetime() const { return lifetime_; }

  // Optional simulated clock, used by convenience emitters (TraceScope) so
  // span producers need not thread an Engine everywhere. Node::set_trace
  // installs its engine's clock; an unclocked log reads 0.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  SimTime Now() const { return clock_ ? clock_() : 0; }

  // Current transfer context, managed RAII-style by ScopedTraceContext
  // around a transfer's synchronous phases. Deeper layers (VM fault handler)
  // key their instants with it, attributing the event to the transfer that
  // caused it. Empty outside any transfer.
  const TransferKey& context() const { return context_; }
  void set_context(const TransferKey& context) { context_ = context; }

  // Writes the Chrome trace-event JSON array format. Timestamps are emitted
  // in microseconds (the trace-event unit). Spans with a flow id carry
  // bind_id/flow_in/flow_out so Perfetto draws the causal arrows.
  void WriteJson(std::ostream& os) const;

 private:
  void Push(Event e);

  std::vector<Event> events_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::map<std::string, const void*> node_owners_;
  std::shared_ptr<const void> lifetime_ = std::make_shared<char>();
  std::function<SimTime()> clock_;
  TransferKey context_;
};

}  // namespace genie

#endif  // GENIE_SRC_SIM_TRACE_H_
