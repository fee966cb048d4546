#include "host_trace.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <queue>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {
volatile std::uint64_t g_reference_sink = 0;  // keeps the kernel's work observable
}  // namespace

double ReferenceKernelSeconds() {
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  constexpr int kSteps = 120000;
  const Clock::time_point start = Clock::now();
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::map<std::uint64_t, std::unique_ptr<std::vector<std::uint64_t>>> live;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  std::uint64_t seq = 0;
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    queue.push({i * 7, seq++, [] {}});
  }
  for (int step = 0; step < kSteps; ++step) {
    Event event = queue.top();
    queue.pop();
    event.fn();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto it = live.find(x % 4096);
    if (it == live.end()) {
      live.emplace(x % 4096, std::make_unique<std::vector<std::uint64_t>>(x % 64 + 1, x));
    } else {
      sink += it->second->back();
      live.erase(it);
    }
    auto payload = std::make_shared<std::uint64_t>(x);
    queue.push({event.time + 1 + x % 1000, seq++, [payload, &sink] { sink += *payload; }});
  }
  const double seconds = SecondsSince(start);
  g_reference_sink = sink;
  return seconds;
}

int SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                      .count();
  span.parent = open_;
  spans_.push_back(span);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void SpanLog::End(int id) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  open_ = span.parent;
}

std::vector<double> SpanLog::DurationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

double SpanLog::TotalUs(std::string_view name) const {
  double total = 0;
  for (const double d : DurationsUs(name)) {
    total += d;
  }
  return total;
}

void SpanLog::WriteChromeJson(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

void EngineProbeTimer::Attach(genie::Engine& engine) {
  have_last_ = false;
  engine.set_probe([this, &engine](genie::SimTime) {
    const Clock::time_point now = Clock::now();
    if (have_last_) {
      intervals_ns_.push_back(
          static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
                                  .count()));
    }
    last_ = now;
    have_last_ = true;
    pending_peak_ = std::max(pending_peak_, engine.pending_events());
  });
}

void EngineProbeTimer::Detach(genie::Engine& engine) {
  engine.set_probe(nullptr);
  have_last_ = false;
}

}  // namespace perfbench
