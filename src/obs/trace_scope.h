// Per-transfer tracing helpers over TraceLog.
//
// TraceScope is an RAII span of one stage of a transfer: opened at
// construction (at the log's current simulated time), closed by End() or
// the destructor. It is safe to keep in a coroutine frame across co_awaits —
// the span simply covers the elapsed simulated time, concurrent scopes on one
// track are fine in the trace-event model. It holds only the transfer key and
// stage; the span's name is formatted when the log is written out.
//
// ScopedTraceContext sets the log's transfer context (a TransferKey) for a
// *synchronous* extent only: deeper layers (the VM fault handler) key their
// instants with it, attributing page-ins, TCOW copies and zero-fills to the
// transfer that triggered them. Never hold one across a co_await — another
// task's events would inherit the context.
#ifndef GENIE_SRC_OBS_TRACE_SCOPE_H_
#define GENIE_SRC_OBS_TRACE_SCOPE_H_

#include <string>

#include "src/sim/trace.h"

namespace genie {

class TraceScope {
 public:
  // A null `log` makes the scope a no-op. `track` must outlive the scope. A
  // nonzero `flow` stamps the span with that causal flow id (see
  // TraceLog::Event::flow).
  TraceScope(TraceLog* log, const std::string& track, const TransferKey& key, TraceStage stage,
             std::uint64_t flow = 0);
  ~TraceScope() { End(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // Emits the span [construction, now) in category "xfer". Idempotent.
  void End();

 private:
  TraceLog* log_;
  const std::string* track_;
  TransferKey key_;
  TraceStage stage_;
  std::uint64_t flow_ = 0;
  SimTime start_ = 0;
};

class ScopedTraceContext {
 public:
  ScopedTraceContext(TraceLog* log, const TransferKey& context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceLog* log_;
  TransferKey previous_;
};

}  // namespace genie

#endif  // GENIE_SRC_OBS_TRACE_SCOPE_H_
