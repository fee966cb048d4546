// fabric_10k: 10,000 closed-loop tenants, all live at t=0, on an 8-node
// star Fabric, driven by the public Workload harness.
//
// 9,000 bulk tenants send 2 transfers each (1-8 KiB, emulated copy or
// copy); 1,000 interactive tenants send 4 each (256 B-1 KiB, emulated
// copy); each node has 8192 page frames. The Workload verifies every
// payload (verify_payloads).
//
// The measured rounds run with selective-repeat ARQ (window 16), under
// which every transfer completes. Without ARQ a frame that reaches its
// receiver before the input is posted is dropped and its tenant parks
// forever (ROADMAP item 4); FabricNoArqUnresolved runs that variant once,
// outside the measured phase, and counts the parked transfers, so the
// defect stays visible without failing measured operations. A stuck tenant
// in the measured rounds still counts as unresolved, i.e. failed.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "layer_counters.h"
#include "src/harness/workload.h"
#include "src/obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using genie::LatencyHistogram;

genie::WorkloadConfig FabricConfig(std::uint64_t seed, bool arq) {
  genie::WorkloadConfig cfg;
  cfg.seed = seed;
  if (arq) {
    genie::ReliableOptions reliable;
    reliable.arq = true;
    reliable.window = 16;
    reliable.seed = seed;
    cfg.reliable = reliable;
  }
  cfg.nodes = 8;
  // At the default 4096 frames per node some seeds run a node out of memory
  // while tenants fill their send buffers, and Workload aborts on the failed
  // AddressSpace::Write. 8192 frames hold every tenant's buffers; at seed
  // 0xfab the no-ARQ pass is event-for-event identical at either size.
  cfg.node.mem_frames = 8192;
  cfg.fabric.topology = genie::Fabric::Topology::kStar;
  cfg.verify_payloads = true;
  genie::TenantClassConfig bulk;
  bulk.name = "bulk";
  bulk.tenants = 9000;
  bulk.transfers_per_tenant = 2;
  bulk.min_bytes = 1024;
  bulk.max_bytes = 8 * 1024;
  bulk.semantics_mix = {genie::Semantics::kEmulatedCopy, genie::Semantics::kCopy};
  cfg.classes.push_back(bulk);
  genie::TenantClassConfig interactive;
  interactive.name = "interactive";
  interactive.tenants = 1000;
  interactive.transfers_per_tenant = 4;
  interactive.min_bytes = 256;
  interactive.max_bytes = 1024;
  interactive.semantics_mix = {genie::Semantics::kEmulatedCopy};
  cfg.classes.push_back(interactive);
  return cfg;
}

// Quantile of the merged class histograms, interpolated linearly inside
// the bucket that holds the rank (Workload keeps no per-transfer samples;
// its buckets are 2^(1/4) wide).
double MergedQuantile(const genie::Workload& wl, std::size_t classes, double q) {
  std::vector<std::uint64_t> buckets(LatencyHistogram::kBuckets, 0);
  std::uint64_t count = 0;
  double lo_all = 0;
  double hi_all = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    const LatencyHistogram& h = wl.class_latency(c);
    if (h.count() == 0) {
      continue;
    }
    lo_all = count == 0 ? h.min() : std::min(lo_all, h.min());
    hi_all = count == 0 ? h.max() : std::max(hi_all, h.max());
    count += h.count();
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      buckets[i] += h.bucket(i);
    }
  }
  if (count == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count);
  double seen = 0;
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    const double n = static_cast<double>(buckets[i]);
    if (n > 0 && seen + n >= rank) {
      const double lo = std::max(lo_all, i == 0 ? 0.0 : LatencyHistogram::BucketUpperBound(i - 1));
      const double hi = std::min(hi_all, LatencyHistogram::BucketUpperBound(i));
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return hi_all;
}

// Layer counters of every node. Workload endpoints are internal, so the
// endpoint counters stay 0; the tenants' address space is each node's "wl"
// process, whose counters are read through the node's metrics registry.
LayerCounters ReadNodes(genie::Engine& engine, genie::Workload& wl) {
  LayerCounters c{};
  c[kEvents] = engine.events_executed();
  for (std::size_t i = 0; i < wl.node_count(); ++i) {
    genie::Node& node = wl.node(i);
    const genie::MetricsSnapshot snap = node.metrics().Snapshot();
    genie::AddressSpace::Counters vm;
    vm.faults = snap.Value("vm.wl.faults");
    vm.tcow_copies = snap.Value("vm.wl.tcow_copies");
    vm.coalesced_pages = snap.Value("vm.wl.coalesced_pages");
    vm.tlb_hits = snap.Value("vm.wl.tlb_hits");
    vm.tlb_misses = snap.Value("vm.wl.tlb_misses");
    AddProcess(c, vm);
    AddNode(c, node);
  }
  return c;
}

// Outcomes. A stuck closed-loop tenant has exactly one transfer parked.
void CountOutcomes(const genie::Workload& wl, RoundResult& r) {
  for (const genie::TenantStats& t : wl.tenant_stats()) {
    r.completed += t.completed;
    r.failed += t.failed;
    r.delivered_bytes += static_cast<double>(t.completed_bytes);
  }
  for (const std::string& v : wl.violations()) {
    if (v.find(" stuck: ") != std::string::npos) {
      ++r.unresolved;
    } else {
      r.AddError("fabric_10k: " + v);
    }
  }
  r.attempted = r.completed + r.failed + r.unresolved;
}

}  // namespace

RoundResult FabricNoArqUnresolved(std::uint64_t seed) {
  RoundResult r;
  genie::Engine engine;
  genie::Workload wl(engine, FabricConfig(seed, /*arq=*/false));
  wl.Run();
  CountOutcomes(wl, r);
  r.MixDigest(engine);
  return r;
}

RoundResult RunFabric10k(std::uint64_t seed, Tracing* tracing) {
  RoundResult r;
  SpanLog* spans = tracing != nullptr ? &tracing->spans : nullptr;
  const genie::WorkloadConfig cfg = FabricConfig(seed, /*arq=*/true);
  genie::Engine engine;
  std::unique_ptr<genie::Workload> wl;
  {
    ScopedSpan span(spans, "harness.build");
    const Clock::time_point t0 = Clock::now();
    wl = std::make_unique<genie::Workload>(engine, cfg);
    r.setup_s = SecondsSince(t0);
  }

  genie::TraceLog log;
  if (tracing != nullptr) {
    for (std::size_t i = 0; i < wl->node_count(); ++i) {
      wl->node(i).set_trace(&log);
    }
    wl->fabric().set_trace(&log);
    tracing->probe.Attach(engine);
  }

  const LayerCounters before = ReadNodes(engine, *wl);
  const AllocCount allocs_before = AllocTotals();
  {
    ScopedSpan span(spans, "harness.workload_run");
    const Clock::time_point t0 = Clock::now();
    {
      AllocWindow window;
      wl->Run();
    }
    r.measured_s = SecondsSince(t0);
  }
  const AllocCount allocs_after = AllocTotals();
  r.allocs = {allocs_after.calls - allocs_before.calls, allocs_after.bytes - allocs_before.bytes};
  LayerCounters layer{};
  AddDelta(layer, before, ReadNodes(engine, *wl));

  if (tracing != nullptr) {
    tracing->probe.Detach(engine);
    for (std::size_t i = 0; i < wl->node_count(); ++i) {
      wl->node(i).set_trace(nullptr);
    }
    wl->fabric().set_trace(nullptr);
    tracing->AddCriticalPath(log);
  }

  CountOutcomes(*wl, r);

  const std::size_t classes = cfg.classes.size();
  r.latency_p50_us = MergedQuantile(*wl, classes, 0.50);
  r.latency_p99_us = MergedQuantile(*wl, classes, 0.99);
  for (std::size_t c = 0; c < classes; ++c) {
    r.latency_samples += wl->class_latency(c).count();
  }
  r.makespan_us = genie::SimTimeToMicros(engine.now());
  // Every node both sends and receives: report the mean node CPU.
  double busy_us = 0;
  for (std::size_t i = 0; i < wl->node_count(); ++i) {
    busy_us += genie::SimTimeToMicros(wl->node(i).cpu().busy_time());
  }
  r.rx_busy_us = busy_us / static_cast<double>(wl->node_count());
  r.MixDigest(engine);

  PutLayerCounts(layer, r.completed, r);

  // Fabric: arbitration wait per link grant, queue high water, link busy.
  genie::Fabric& fabric = wl->fabric();
  std::uint64_t grants = 0;
  double busy_link_us = 0;
  std::size_t links = 0;
  for (std::size_t i = 0; i < wl->node_count(); ++i) {
    for (genie::SwitchLink* link : {&fabric.uplink(wl->node(i).adapter()),
                                    &fabric.downlink(wl->node(i).adapter())}) {
      grants += link->grants();
      busy_link_us += genie::SimTimeToMicros(link->busy_time());
      ++links;
    }
  }
  r.counts["fabric.wait_us_per_grant"] =
      grants == 0 ? 0.0
                  : genie::SimTimeToMicros(fabric.total_arbitration_wait()) /
                        static_cast<double>(grants);
  r.counts["fabric.queue_peak"] = static_cast<double>(fabric.max_link_queue());
  r.counts["fabric.link_busy_pct"] =
      100.0 * busy_link_us / (static_cast<double>(links) * r.makespan_us);
  return r;
}

}  // namespace perfbench
