#include "src/obs/trace_scope.h"

namespace genie {

TraceScope::TraceScope(TraceLog* log, const std::string& track, const TransferKey& key,
                       TraceStage stage, std::uint64_t flow)
    : log_(log), track_(&track), key_(key), stage_(stage), flow_(flow) {
  if (log_ != nullptr) {
    start_ = log_->Now();
  }
}

void TraceScope::End() {
  if (log_ == nullptr) {
    return;
  }
  log_->Span(*track_, key_, stage_, "xfer", start_, log_->Now(), flow_);
  log_ = nullptr;
}

ScopedTraceContext::ScopedTraceContext(TraceLog* log, const TransferKey& context) : log_(log) {
  if (log_ != nullptr) {
    previous_ = log_->context();
    log_->set_context(context);
  }
}

ScopedTraceContext::~ScopedTraceContext() {
  if (log_ != nullptr) {
    log_->set_context(previous_);
  }
}

}  // namespace genie
