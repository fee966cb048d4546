// Continuous telemetry plane: counter/histogram window-delta math, the
// probe-driven sampler's seeded cadence and zero-perturbation guarantee,
// Perfetto counter-track emission, SLO burn-rate alerting, and the
// partition-flap soak (an alert fires inside the outage window and the
// flight-recorder dump names the violating tenant).
#include "src/obs/telemetry.h"

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/genie/node.h"
#include "src/harness/workload.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace genie {
namespace {

// DumpToFile consults GENIE_FLIGHT_DIR before Config::dir; pin it unset for
// the soak test so dumps land in the test's TempDir.
class ScopedFlightDirEnv {
 public:
  explicit ScopedFlightDirEnv(const char* value) {
    const char* prev = std::getenv("GENIE_FLIGHT_DIR");
    had_prev_ = prev != nullptr;
    if (had_prev_) {
      prev_ = prev;
    }
    if (value == nullptr) {
      unsetenv("GENIE_FLIGHT_DIR");
    } else {
      setenv("GENIE_FLIGHT_DIR", value, 1);
    }
  }
  ~ScopedFlightDirEnv() {
    if (had_prev_) {
      setenv("GENIE_FLIGHT_DIR", prev_.c_str(), 1);
    } else {
      unsetenv("GENIE_FLIGHT_DIR");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(CounterDeltaTest, MonotonicCountersAndResetClamp) {
  EXPECT_EQ(CounterDelta(0, 0), 0u);
  EXPECT_EQ(CounterDelta(3, 10), 7u);
  // A decrease means the source was reset (node restart); the window reports
  // 0, never an unsigned wraparound.
  EXPECT_EQ(CounterDelta(10, 3), 0u);
  EXPECT_EQ(CounterDelta(~0ull, 0), 0u);
}

TEST(HistogramDeltaTest, IntervalDifferenceMatchesDirectlyCollectedHistogram) {
  LatencyHistogram cumulative;
  for (int i = 0; i < 50; ++i) {
    cumulative.Add(10.0 + i);  // phase 1: 50 samples in the tens
  }
  const LatencyHistogram start = cumulative;

  LatencyHistogram direct;  // collects only the window's samples
  for (int i = 0; i < 80; ++i) {
    const double v = 300.0 + 5 * i;  // phase 2: distinct range
    cumulative.Add(v);
    direct.Add(v);
  }

  const HistogramDelta delta = DiffHistograms(cumulative, start);
  EXPECT_EQ(delta.count, direct.count());
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    EXPECT_EQ(delta.buckets[i], direct.bucket(i)) << "bucket " << i;
  }
  // Mid-range quantiles resolve to the same bucket boundary as a histogram
  // that only ever saw the window (no min/max clamping in play at p50).
  EXPECT_DOUBLE_EQ(delta.Quantile(50), direct.Quantile(50));
  // Near the top the direct histogram clamps its answer to the observed max,
  // which a window delta cannot know; the delta must still agree to within
  // one bucket (the boundary ratio, 2^(1/4)).
  EXPECT_GE(delta.Quantile(90), direct.Quantile(90));
  EXPECT_LE(delta.Quantile(90), direct.Quantile(90) * 1.1892071150027210667);
}

TEST(HistogramDeltaTest, OverflowBucketQuantileReportsEndMax) {
  LatencyHistogram cumulative;
  cumulative.Add(5.0);
  const LatencyHistogram start = cumulative;
  const double huge = 1e15;  // far past the last finite bucket boundary
  cumulative.Add(huge);
  const HistogramDelta delta = DiffHistograms(cumulative, start);
  ASSERT_EQ(delta.count, 1u);
  EXPECT_EQ(delta.buckets[LatencyHistogram::kBuckets - 1], 1u);
  // The overflow bucket has no finite upper bound; the cumulative max is the
  // best available answer for any rank that lands there.
  EXPECT_DOUBLE_EQ(delta.Quantile(99), huge);
}

TEST(HistogramDeltaTest, SourceResetMidWindowClampsBucketsToZero) {
  LatencyHistogram before_reset;
  for (int i = 0; i < 20; ++i) {
    before_reset.Add(100.0);
  }
  LatencyHistogram after_reset;  // fresh: the source was reset mid-window
  after_reset.Add(100.0);
  const HistogramDelta delta = DiffHistograms(after_reset, before_reset);
  EXPECT_EQ(delta.count, 0u);  // clamped, not 1 - 20 underflowed
}

TEST(TelemetrySamplerTest, SeededCadenceStampsBoundariesAndDerivesRates) {
  Engine engine;
  MetricsRegistry reg;
  TelemetrySampler::Config cfg;
  cfg.period = 100 * kMicrosecond;  // seed 0: boundaries at 100us, 200us, ...
  cfg.rate_counters = {"c"};
  TelemetrySampler sampler(&engine, cfg);
  sampler.AddSource("src", &reg);

  engine.ScheduleAt(50 * kMicrosecond, [&] { reg.Add("c", 5); });
  engine.ScheduleAt(150 * kMicrosecond, [&] { reg.Add("c", 7); });
  engine.ScheduleAt(460 * kMicrosecond, [&] { reg.Add("c", 9); });
  engine.Run();
  sampler.Finish();

  const TelemetrySeries* s = sampler.FindSeries("src");
  ASSERT_NE(s, nullptr);
  // Three samples: the 150us event crosses the 100us boundary (value: the
  // 50us event only — probes run before the crossing event's callback); the
  // 460us event jumps two periods and lands ONE sample at the 400us
  // boundary; Finish() flushes the final partial window at 460us.
  ASSERT_EQ(s->samples.size(), 3u);
  EXPECT_EQ(s->samples[0].t, 100 * kMicrosecond);
  EXPECT_EQ(s->samples[0].interval, 100 * kMicrosecond);
  EXPECT_EQ(s->samples[0].values.at("c"), 5u);
  EXPECT_DOUBLE_EQ(s->samples[0].rates.at("c.rate_per_s"), 5e9 / 100000.0);

  EXPECT_EQ(s->samples[1].t, 400 * kMicrosecond);
  EXPECT_EQ(s->samples[1].interval, 300 * kMicrosecond);
  EXPECT_EQ(s->samples[1].values.at("c"), 12u);
  EXPECT_DOUBLE_EQ(s->samples[1].rates.at("c.rate_per_s"), 7e9 / 300000.0);

  EXPECT_EQ(s->samples[2].t, 460 * kMicrosecond);
  EXPECT_EQ(s->samples[2].interval, 60 * kMicrosecond);
  EXPECT_EQ(s->samples[2].values.at("c"), 21u);
  EXPECT_DOUBLE_EQ(s->samples[2].rates.at("c.rate_per_s"), 9e9 / 60000.0);
  EXPECT_EQ(sampler.samples_taken(), 3u);
}

TEST(TelemetrySamplerTest, SeedOffsetsThePhaseGrid) {
  Engine engine;
  MetricsRegistry reg;
  TelemetrySampler::Config cfg;
  cfg.period = 100 * kMicrosecond;
  cfg.seed = 30 * kMicrosecond;  // boundaries at 30us, 130us, ...
  TelemetrySampler sampler(&engine, cfg);
  sampler.AddSource("src", &reg);
  engine.ScheduleAt(50 * kMicrosecond, [] {});
  engine.Run();
  const TelemetrySeries* s = sampler.FindSeries("src");
  ASSERT_EQ(s->samples.size(), 1u);
  EXPECT_EQ(s->samples[0].t, 30 * kMicrosecond);
}

TEST(TelemetrySamplerTest, AttachedSamplerAddsNoEventsAndPreservesDigest) {
  // The whole point of the probe design: a run with a sampler attached
  // executes the identical event sequence (digest and count) as without.
  const auto run = [](bool with_sampler) {
    Engine engine;
    MetricsRegistry reg;
    std::unique_ptr<TelemetrySampler> sampler;
    if (with_sampler) {
      TelemetrySampler::Config cfg;
      cfg.period = 50 * kMicrosecond;
      cfg.rate_counters = {"c"};
      sampler = std::make_unique<TelemetrySampler>(&engine, cfg);
      sampler->AddSource("src", &reg);
    }
    // A self-rescheduling chain: 40 events at 30us strides.
    std::function<void(int)> tick = [&](int remaining) {
      reg.Add("c", 1);
      if (remaining > 0) {
        engine.ScheduleAt(engine.now() + 30 * kMicrosecond,
                          [&tick, remaining] { tick(remaining - 1); });
      }
    };
    engine.ScheduleAt(0, [&tick] { tick(39); });
    engine.Run();
    if (sampler != nullptr) {
      sampler->Finish();
      EXPECT_GT(sampler->samples_taken(), 10u);
    }
    return std::pair<std::uint64_t, std::uint64_t>(engine.event_digest(),
                                                   engine.events_executed());
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(TelemetrySamplerTest, RingCapacityEvictsOldestAndCountsDrops) {
  Engine engine;
  MetricsRegistry reg;
  TelemetrySampler::Config cfg;
  cfg.period = 10 * kMicrosecond;
  cfg.ring_capacity = 2;
  TelemetrySampler sampler(&engine, cfg);
  sampler.AddSource("src", &reg);
  for (int i = 1; i <= 5; ++i) {
    engine.ScheduleAt(i * 10 * kMicrosecond + kMicrosecond, [] {});
  }
  engine.Run();
  const TelemetrySeries* s = sampler.FindSeries("src");
  ASSERT_EQ(s->samples.size(), 2u);
  EXPECT_EQ(s->dropped, sampler.samples_taken() - 2);
  EXPECT_GT(s->dropped, 0u);
  // The retained tail is the newest samples.
  EXPECT_LT(s->samples[0].t, s->samples[1].t);
  EXPECT_EQ(s->samples[1].t, 50 * kMicrosecond);
}

TEST(TelemetrySamplerTest, CounterTracksEmitContinuousSeriesToTrace) {
  Engine engine;
  MetricsRegistry reg;
  TraceLog trace;
  TelemetrySampler::Config cfg;
  cfg.period = 100 * kMicrosecond;
  cfg.rate_counters = {"c"};
  cfg.counter_tracks = {"src/c", "src/c.rate_per_s", "src/absent"};
  TelemetrySampler sampler(&engine, cfg);
  sampler.AddSource("src", &reg);
  sampler.set_trace(&trace);
  engine.ScheduleAt(50 * kMicrosecond, [&] { reg.Add("c", 4); });
  engine.ScheduleAt(150 * kMicrosecond, [] {});
  engine.ScheduleAt(250 * kMicrosecond, [] {});
  engine.Run();

  // Two samples (100us, 200us) x three configured selectors, every sample —
  // even an all-zero one — so Perfetto draws continuous lines.
  std::vector<TraceLog::Event> counters;
  for (const TraceLog::Event& e : trace.events()) {
    if (e.counter) {
      counters.push_back(e);
    }
  }
  ASSERT_EQ(counters.size(), 6u);
  for (const TraceLog::Event& e : counters) {
    EXPECT_EQ(e.track, "telemetry");
    EXPECT_EQ(e.flow, 0u);  // invisible to the causal-graph analyzers
  }
  EXPECT_EQ(counters[0].Name(), "src/c");
  EXPECT_DOUBLE_EQ(counters[0].value, 4.0);
  EXPECT_EQ(counters[1].Name(), "src/c.rate_per_s");
  EXPECT_DOUBLE_EQ(counters[1].value, 4e9 / 100000.0);
  EXPECT_EQ(counters[2].Name(), "src/absent");
  EXPECT_DOUBLE_EQ(counters[2].value, 0.0);
  // Second window: no new increments — raw value holds, rate drops to 0.
  EXPECT_DOUBLE_EQ(counters[3].value, 4.0);
  EXPECT_DOUBLE_EQ(counters[4].value, 0.0);

  // The counter JSON is the Perfetto "ph":"C" form.
  std::ostringstream os;
  trace.WriteJson(os);
  EXPECT_NE(os.str().find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(os.str().find(R"("args":{"value":)"), std::string::npos);
}

TEST(TelemetrySamplerTest, GaugeResetAcrossNodeRestartClampsRateToZero) {
  // A gauge-backed counter that resets when its node crash-restarts must
  // yield a zero-rate window, not an unsigned-wraparound spike.
  Engine engine;
  Node node(engine, "n0", Node::Config{});
  std::uint64_t ops = 0;
  node.metrics().RegisterGauge("test.ops", [&ops] { return ops; });

  TelemetrySampler::Config cfg;
  cfg.period = 100 * kMicrosecond;
  cfg.rate_counters = {"test.ops"};
  TelemetrySampler sampler(&engine, cfg);
  sampler.AddSource("n0", &node.metrics());

  engine.ScheduleAt(50 * kMicrosecond, [&] { ops = 40; });
  engine.ScheduleAt(150 * kMicrosecond, [&] {
    node.Crash();
    ops = 0;  // incarnation state lost with the crash
  });
  engine.ScheduleAt(180 * kMicrosecond, [&] { node.Restart(); });
  engine.ScheduleAt(250 * kMicrosecond, [&] { ops = 10; });
  engine.ScheduleAt(350 * kMicrosecond, [] {});
  engine.Run();

  const TelemetrySeries* s = sampler.FindSeries("n0");
  ASSERT_EQ(s->samples.size(), 3u);
  EXPECT_DOUBLE_EQ(s->samples[0].rates.at("test.ops.rate_per_s"), 40e9 / 100000.0);
  // Window 2 saw the reset (40 -> 0): clamped delta, zero rate.
  EXPECT_DOUBLE_EQ(s->samples[1].rates.at("test.ops.rate_per_s"), 0.0);
  EXPECT_EQ(s->samples[1].values.count("test.ops"), 0u);  // zero omitted
  // Window 3 resumes from the post-reset baseline.
  EXPECT_DOUBLE_EQ(s->samples[2].rates.at("test.ops.rate_per_s"), 10e9 / 100000.0);
  EXPECT_EQ(s->samples[2].values.at("node.crashes"), 1u);
}

TEST(SloTrackerTest, BurnRateFiresOncePerEpisodeAndGoodWindowResets) {
  Engine engine;
  MetricsRegistry metrics;
  TelemetrySampler::Config cfg;
  cfg.period = 100 * kMicrosecond;
  TelemetrySampler sampler(&engine, cfg);
  MetricsRegistry src;
  sampler.AddSource("src", &src);

  SloTracker slo(&sampler);
  slo.set_metrics(&metrics);
  SloObjective obj;
  obj.name = "tenant0";
  obj.giveups_zero = true;
  obj.short_windows = 2;
  obj.long_windows = 4;
  obj.long_burn_threshold = 0.5;
  std::uint64_t giveups = 0;
  SloInputs in;
  in.giveups = [&giveups] { return giveups; };
  in.active = [] { return true; };
  slo.AddObjective(obj, in);

  // One giveup per window for windows 1..4 (bad), then two clean windows,
  // then bad again for windows 7..8: two episodes, two alerts.
  for (int w = 1; w <= 8; ++w) {
    const bool bad = w <= 4 || w >= 7;
    engine.ScheduleAt(w * 100 * kMicrosecond - 50 * kMicrosecond, [&giveups, bad] {
      if (bad) {
        ++giveups;
      }
    });
  }
  engine.ScheduleAt(850 * kMicrosecond, [] {});  // close window 8
  engine.Run();

  ASSERT_EQ(slo.alerts().size(), 2u);
  // First alert: at window 2 (short_windows=2 consecutive bad, burn 2/2).
  EXPECT_EQ(slo.alerts()[0].objective, "tenant0");
  EXPECT_EQ(slo.alerts()[0].window_end, 200 * kMicrosecond);
  EXPECT_EQ(slo.alerts()[0].bad_short, 2);
  EXPECT_NE(slo.alerts()[0].reason.find("giveups"), std::string::npos);
  // Windows 3-4 stay inside the first episode (no re-fire); windows 5-6 are
  // good and reset it; the second bad run fires again at window 8.
  EXPECT_EQ(slo.alerts()[1].window_end, 800 * kMicrosecond);

  const auto verdicts = slo.Verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].objective, "tenant0");
  EXPECT_EQ(verdicts[0].windows, 8u);
  EXPECT_EQ(verdicts[0].bad_windows, 6u);
  EXPECT_EQ(verdicts[0].alerts, 2u);
  EXPECT_FALSE(verdicts[0].ok());
  EXPECT_EQ(metrics.Counter("slo.alerts"), 2u);
  EXPECT_EQ(metrics.Counter("slo.tenant0.bad_windows"), 6u);
}

TEST(SloTrackerTest, IdleWindowsAreSkippedAndGoodputArmsOnFirstBytes) {
  Engine engine;
  TelemetrySampler::Config cfg;
  cfg.period = 100 * kMicrosecond;
  TelemetrySampler sampler(&engine, cfg);
  MetricsRegistry src;
  sampler.AddSource("src", &src);

  SloTracker slo(&sampler);
  SloObjective obj;
  obj.name = "t";
  obj.goodput_floor_bytes_per_s = 1e6;
  obj.short_windows = 1;
  obj.long_windows = 1;
  std::uint64_t bytes = 0;
  bool active = false;
  SloInputs in;
  in.completed_bytes = [&bytes] { return bytes; };
  in.active = [&active] { return active; };
  slo.AddObjective(obj, in);

  // Windows 1-2: inactive, no bytes — skipped entirely (no budget burned).
  // Window 3: first bytes move (arms the goodput clause). Window 4: active
  // but starved — the clause now fails and fires.
  engine.ScheduleAt(250 * kMicrosecond, [&] {
    active = true;
    bytes = 1 << 20;
  });
  engine.ScheduleAt(450 * kMicrosecond, [] {});
  engine.Run();
  sampler.Finish();

  const auto verdicts = slo.Verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].windows, 2u);  // idle windows never counted
  EXPECT_EQ(verdicts[0].bad_windows, 1u);
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_NE(slo.alerts()[0].reason.find("goodput"), std::string::npos);
}

// --- Partition-flap soak: the acceptance scenario ---
//
// A dumbbell workload with per-tenant SLOs runs through a trunk outage that
// the ARQ budget can ride out. The burn-rate alert must fire INSIDE the
// outage window, dump the flight recorder with the violating tenant named,
// and the trace must carry the counter tracks. Two same-seed runs must
// produce byte-identical run reports.
struct SoakResult {
  std::string report;
  std::uint64_t digest = 0;
  std::vector<SloAlert> alerts;
  std::string dump_path;
  std::set<std::string> counter_names;
};

SoakResult RunPartitionSoak(bool with_telemetry, const std::string& flight_dir) {
  constexpr SimTime kPartitionStart = 1 * kMillisecond;
  constexpr SimTime kHeal = 6 * kMillisecond;

  WorkloadConfig cfg;
  cfg.seed = 4242;
  cfg.nodes = 2;
  cfg.fabric.topology = Fabric::Topology::kDumbbell;
  cfg.deadline = 10 * kMillisecond;
  ReliableOptions rel;
  rel.arq = true;
  rel.window = 4;
  rel.jitter_frac = 0.0;
  rel.max_retransmits = 10;
  rel.initial_timeout = 300 * kMicrosecond;
  rel.max_timeout = 2400 * kMicrosecond;
  cfg.reliable = rel;
  TenantClassConfig closed;
  closed.name = "closed";
  closed.tenants = 2;  // one per side; every transfer crosses the trunk
  closed.transfers_per_tenant = 0;  // offered load until the deadline
  closed.min_bytes = 4096;
  closed.max_bytes = 4096;
  closed.slo_goodput_floor_bps = 64 * 1024;  // healthy rate is megabytes/s
  closed.slo_giveups_zero = true;
  closed.slo_short_windows = 2;
  closed.slo_long_windows = 4;
  cfg.classes.push_back(closed);

  // Order matters: the workload's sampler/SLO tracker unregister from the
  // trace log in their destructors, so the log must outlive the workload.
  Engine engine;
  TraceLog trace;
  Workload wl(engine, cfg);
  FlightRecorder::Config fcfg;
  fcfg.capacity = 512;
  fcfg.seed = cfg.seed;
  fcfg.dir = flight_dir;
  FlightRecorder flight("wl", &trace, nullptr, fcfg);
  if (with_telemetry) {
    Workload::TelemetryOptions topts;
    topts.sampler.period = 500 * kMicrosecond;
    topts.trace = &trace;
    topts.flight = &flight;
    wl.EnableTelemetry(topts);
  }

  engine.ScheduleAt(kPartitionStart, [&] {
    wl.fabric().SetTrunkDown(0);
    wl.fabric().SetTrunkDown(1);
  });
  engine.ScheduleAt(kHeal, [&] { wl.fabric().HealAll(); });
  wl.Run();
  EXPECT_TRUE(wl.violations().empty());

  SoakResult r;
  r.digest = engine.event_digest();
  if (with_telemetry) {
    std::ostringstream os;
    wl.WriteRunReport(os);
    r.report = os.str();
    r.alerts = wl.slo()->alerts();
    for (const TraceLog::Event& e : trace.events()) {
      if (e.counter) {
        r.counter_names.insert(e.Name());
      }
    }
    // Dumps number from 1; the first alert's dump is "flight_wl_1.json".
    if (flight.dumps_written() > 0) {
      r.dump_path = flight_dir + "/flight_wl_1.json";
    }
  }
  return r;
}

TEST(TelemetrySoakTest, PartitionFlapFiresBurnRateAlertInsideOutageWindow) {
  ScopedFlightDirEnv env(nullptr);
  const SoakResult r = RunPartitionSoak(true, ::testing::TempDir());

  // The alert fires while the trunk is down — not after the heal.
  ASSERT_FALSE(r.alerts.empty());
  const SloAlert& first = r.alerts.front();
  EXPECT_GT(first.window_end, 1 * kMillisecond);
  EXPECT_LE(first.window_end, 6 * kMillisecond);
  EXPECT_NE(first.objective.find("closed.t"), std::string::npos)
      << "alert must pin the violating tenant, got " << first.objective;
  EXPECT_GE(first.bad_short, 2);

  // The flight-recorder dump exists and its reason names tenant and window.
  ASSERT_FALSE(r.dump_path.empty());
  std::ifstream dump(r.dump_path);
  ASSERT_TRUE(dump.good()) << r.dump_path;
  std::stringstream buf;
  buf << dump.rdbuf();
  EXPECT_NE(buf.str().find("slo_alert closed.t"), std::string::npos);
  EXPECT_NE(buf.str().find("window ["), std::string::npos);

  // The default track set renders at least 5 distinct counter series.
  EXPECT_GE(r.counter_names.size(), 5u);
  EXPECT_EQ(r.counter_names.count("fabric/fabric.down_links"), 1u);
  EXPECT_EQ(r.counter_names.count("wl/wl.closed.completed_bytes.rate_per_s"), 1u);

  // The run report is present and self-consistent.
  EXPECT_NE(r.report.find("\"slo\""), std::string::npos);
  EXPECT_NE(r.report.find("closed.t"), std::string::npos);
}

TEST(TelemetrySoakTest, SameSeedRunsProduceByteIdenticalReportsAndTelemetryIsFree) {
  ScopedFlightDirEnv env(nullptr);
  const SoakResult a = RunPartitionSoak(true, ::testing::TempDir());
  const SoakResult b = RunPartitionSoak(true, ::testing::TempDir());
  EXPECT_FALSE(a.report.empty());
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.digest, b.digest);

  // Telemetry adds zero events and zero RNG draws: the bare run's digest is
  // bit-identical to the instrumented runs'.
  const SoakResult bare = RunPartitionSoak(false, ::testing::TempDir());
  EXPECT_EQ(bare.digest, a.digest);
}

}  // namespace
}  // namespace genie
