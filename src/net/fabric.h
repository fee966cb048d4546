// Adapter wiring: a dedicated point-to-point wire, or a switched N-port
// fabric. Both hand adapters the same thing — a TxPath of arbitrated
// SwitchLinks per channel plus a control-cell return peer — so every frame
// takes one acquire -> stream -> release path whatever the topology.
//
// PointToPointLink is the paper's testbed: two adapters joined by one
// dedicated link per direction (one ATM virtual circuit each way). Every
// channel in a direction shares that direction's link, arbitrated per
// channel by DRR like any fabric link.
//
// Fabric gives each attached adapter a Port: an ingress (uplink) and an
// egress (downlink) SwitchLink, both DRR-arbitrated per channel. A star
// topology connects every uplink to every downlink through the
// (contention-free) switch core, so a frame's path is [source uplink,
// destination downlink]. A dumbbell splits the ports in two sides joined by
// one shared trunk per direction — the classic contended bottleneck link —
// so cross-side frames additionally serialize on [source-side trunk].
//
// Frames hold their whole path while streaming (acquire in the global order
// uplink < trunk < egress, release in reverse), which keeps the receive side
// of every adapter single-frame-at-a-time exactly as a dedicated wire does,
// and makes hold-while-waiting deadlock-free: wait-for edges only point
// from lower- to higher-ranked links, so no cycle can form. The price is
// input-queued head-of-line blocking, which the fairness tests observe.
//
// Fabric channels are bidirectional: OpenChannel(ch, a, b) installs routes
// in both directions plus the control-cell return mapping (acks, SACK
// trains, and flow-control credits ride a lossless out-of-band path straight
// to the other end, as on a point-to-point wire). Route pointers stay valid
// until CloseChannel; adapters copy the path they use.
#ifndef GENIE_SRC_NET_FABRIC_H_
#define GENIE_SRC_NET_FABRIC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/adapter.h"
#include "src/net/switch_link.h"
#include "src/obs/metrics.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"
#include "src/util/rng.h"

namespace genie {

class PointToPointLink {
 public:
  // DRR byte quantum of each direction's link: one page, the adapter's
  // streaming granularity and the fabric's default.
  static constexpr std::uint64_t kDrrQuantumBytes = 4096;

  // Wires `a` and `b` to each other, one link per direction, for every
  // channel. Must outlive any transmission on either adapter.
  PointToPointLink(Engine& engine, Adapter& a, Adapter& b);
  PointToPointLink(const PointToPointLink&) = delete;
  PointToPointLink& operator=(const PointToPointLink&) = delete;

 private:
  SwitchLink ab_;
  SwitchLink ba_;
  TxPath a_to_b_;
  TxPath b_to_a_;
};

class Fabric {
 public:
  enum class Topology : std::uint8_t {
    kStar,      // one switch; contention only at per-port links
    kDumbbell,  // two sides joined by one shared trunk per direction
  };

  struct Config {
    Topology topology = Topology::kStar;
    // DRR byte quantum per arbitration visit at every link. One quantum per
    // rotation approximates max-min fair byte shares among backlogged
    // channels; a quantum at least the common frame size keeps the arbiter
    // work-conserving for that size.
    std::uint64_t drr_quantum_bytes = 4096;
  };

  Fabric(Engine& engine, Config config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Attaches `adapter` as a fabric port and installs the fabric's routing
  // hooks on it (Adapter::Connect: an adapter is wired once, to a fabric or
  // a PointToPointLink). `side` selects the dumbbell half (0 or 1); stars
  // ignore it.
  void Attach(Adapter& adapter, int side = 0);

  // Opens channel `ch` between two attached adapters: routes in both
  // directions plus the control-cell return mapping. A channel id is global
  // to the fabric — each id connects exactly one adapter pair.
  void OpenChannel(std::uint64_t ch, Adapter& a, Adapter& b);
  void CloseChannel(std::uint64_t ch);

  // Route/control resolution relative to `self` (the transmitting adapter).
  // Returns nullptr when `self` is not an end of `ch`.
  const TxPath* RouteFor(const Adapter& self, std::uint64_t ch) const;
  Adapter* ControlPeerFor(const Adapter& self, std::uint64_t ch) const;

  std::size_t ports() const { return ports_.size(); }
  std::size_t channels() const { return routes_.size(); }

  // Per-port links, for tests and stats roll-ups.
  SwitchLink& uplink(const Adapter& adapter) { return *PortOf(adapter).up; }
  SwitchLink& downlink(const Adapter& adapter) { return *PortOf(adapter).down; }
  // Dumbbell trunk carrying side -> (1 - side) traffic; aborts on a star.
  SwitchLink& trunk(int side);

  // --- Link outage control (crash/partition robustness layer) ---
  //
  // Taking a link down drops every frame queued on it and fails subsequent
  // path acquisitions until the link heals; a frame mid-stream when its link
  // dies arrives corrupt and takes the normal CRC-fail nack/retransmit path.
  // Adapter-held reorder frames whose replay path is down are dropped at
  // replay time. Healing resets the link's DRR state (deficits, rotation).
  // Control cells (acks, SACKs, credits, fences) model a separate resilient
  // control network and are unaffected — a partition outlasting the ARQ
  // retry budget still surfaces kGiveUp, never silent loss.
  void SetLinkDown(SwitchLink& link);
  void SetLinkUp(SwitchLink& link);
  // Partitions one port off the fabric (both its uplink and downlink).
  void SetPortDown(const Adapter& adapter);
  void SetPortUp(const Adapter& adapter);
  // Dumbbell trunk outage in one direction; aborts on a star.
  void SetTrunkDown(int side);
  void SetTrunkUp(int side);
  // Brings every down link back up.
  void HealAll();

  // Builds a deterministic flap schedule from `seed`: starting from the
  // current sim time, links chosen by the seeded stream go down for a
  // bounded outage and heal, repeating until `horizon`. mean_period is the
  // average gap between flap onsets, mean_outage the average down time
  // (both jittered uniformly in [mean/2, 3*mean/2)). The schedule is fixed
  // at call time — replaying the same seed replays the same outages.
  void ScheduleFlaps(std::uint64_t seed, SimTime horizon, SimTime mean_period,
                     SimTime mean_outage);

  // Emits link_down/link_up trace instants on track "fabric" when set.
  void set_trace(TraceLog* trace);

  // Aggregate stats over every link in the fabric.
  std::uint64_t frames_switched() const;   // egress (downlink) grants
  SimTime total_arbitration_wait() const;  // sum of link wait times
  std::size_t max_link_queue() const;      // high-water queue over all links
  std::uint64_t link_flaps() const;        // down transitions over all links
  std::uint64_t link_down_drops() const;   // queued frames dropped by outages
  std::uint64_t backlog_frames() const;    // frames queued right now, all links
  std::uint64_t down_links() const;        // links currently down

  // Registry exposing the aggregates as fabric.* gauges, samplable by the
  // telemetry plane exactly like a node's registry.
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Port {
    Adapter* adapter = nullptr;
    int side = 0;
    std::unique_ptr<SwitchLink> up;
    std::unique_ptr<SwitchLink> down;
  };

  struct ChannelRoute {
    Adapter* a = nullptr;
    Adapter* b = nullptr;
    TxPath a_to_b;
    TxPath b_to_a;
  };

  Port& PortOf(const Adapter& adapter);
  const Port* FindPort(const Adapter& adapter) const;
  TxPath BuildPath(const Port& src, const Port& dst);
  // Every link in the fabric, sorted by name: a deterministic order for the
  // seeded flap scheduler (the port map is keyed by pointer, whose iteration
  // order is not reproducible across processes).
  std::vector<SwitchLink*> AllLinks() const;

  Engine* engine_;
  Config config_;
  TraceLog* trace_ = nullptr;
  MetricsRegistry metrics_;
  // Keyed by adapter identity; node-indexed maps give stable Port addresses.
  std::map<const Adapter*, Port> ports_;
  std::map<std::uint64_t, ChannelRoute> routes_;
  std::unique_ptr<SwitchLink> trunks_[2];  // dumbbell only; [side] = side -> other
};

}  // namespace genie

#endif  // GENIE_SRC_NET_FABRIC_H_
