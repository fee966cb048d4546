#include "src/obs/flight_recorder.h"

#include <cstdlib>
#include <fstream>
#include <utility>

#include "src/util/json.h"
#include "src/util/units.h"

namespace genie {

FlightRecorder::FlightRecorder(std::string node, TraceLog* log, const MetricsRegistry* metrics,
                               Config cfg)
    : node_(std::move(node)), log_(log), metrics_(metrics), cfg_(std::move(cfg)) {
  log_->set_capacity(cfg_.capacity);
}

FlightRecorder::FlightRecorder(std::string node, TraceLog* log, const MetricsRegistry* metrics)
    : FlightRecorder(std::move(node), log, metrics, Config{}) {}

void FlightRecorder::Dump(std::ostream& os, std::string_view reason) const {
  os << "{\"reason\":";
  WriteJsonString(os, reason);
  os << ",\"node\":";
  WriteJsonString(os, node_);
  os << ",\"sim_time_us\":";
  WriteJsonDouble(os, SimTimeToMicros(log_->Now()));
  os << ",\"seed\":" << cfg_.seed;
  if (epoch_ != 0) {
    os << ",\"epoch\":" << epoch_;
  }
  os << ",\"dropped_events\":" << log_->dropped_events();
  if (metrics_ != nullptr) {
    os << ",\"metrics\":";
    metrics_->Snapshot().WriteJson(os);
  }
  os << ",\"events\":[";
  bool first = true;
  for (const TraceLog::Event& e : log_->events()) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"track\":";
    WriteJsonString(os, e.track);
    os << ",\"name\":";
    WriteJsonString(os, e.Name());
    os << ",\"cat\":";
    WriteJsonString(os, e.category);
    os << ",\"ts_us\":";
    WriteJsonDouble(os, SimTimeToMicros(e.start));
    if (!e.instant) {
      os << ",\"dur_us\":";
      WriteJsonDouble(os, SimTimeToMicros(e.end - e.start));
    }
    if (e.flow != 0) {
      os << ",\"flow\":" << e.flow;
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string FlightRecorder::DumpToFile(std::string_view reason) {
  std::string dir = cfg_.dir;
  if (const char* env = std::getenv("GENIE_FLIGHT_DIR"); env != nullptr && env[0] != '\0') {
    dir = env;
  }
  if (dir.empty()) {
    dir = ".";
  }
  const std::string infix = epoch_ != 0 ? "_e" + std::to_string(epoch_) + "_" : "_";
  const std::string path =
      dir + "/flight_" + node_ + infix + std::to_string(++dumps_written_) + ".json";
  std::ofstream out(path);
  if (!out) {
    return std::string();
  }
  Dump(out, reason);
  return path;
}

void FlightRecorder::RegisterGauges(MetricsRegistry& registry) {
  registry.RegisterGauge("flight.dumps", [this] { return dumps_written_; });
}

}  // namespace genie
