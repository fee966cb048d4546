// Link wiring unit tests: DRR link arbitration, star/dumbbell routing,
// control-cell return paths, end-to-end transfers across four nodes, and
// point-to-point links.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/net/fabric.h"
#include "src/net/switch_link.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

// --- SwitchLink arbitration ---

Task<void> HoldLink(Engine& engine, SwitchLink& link, std::uint64_t channel,
                    std::uint64_t bytes, SimTime hold, std::vector<std::uint64_t>* order) {
  struct Awaiter {
    SwitchLink& link;
    std::uint64_t channel;
    std::uint64_t bytes;
    bool await_ready() { return link.TryAcquire(channel, bytes); }
    void await_suspend(std::coroutine_handle<> h) { link.Enqueue(channel, bytes, h); }
    void await_resume() const noexcept {}
  };
  co_await Awaiter{link, channel, bytes};
  order->push_back(channel);
  co_await Delay(engine, hold);
  link.Release();
}

TEST(SwitchLinkTest, UncontendedAcquireIsSynchronousAndAddsNoEvents) {
  Engine engine;
  SwitchLink link(engine, "l", 4096);
  EXPECT_TRUE(link.TryAcquire(7, 100));
  EXPECT_TRUE(link.held());
  link.Release();
  EXPECT_FALSE(link.held());
  EXPECT_EQ(link.grants(), 1u);
  EXPECT_EQ(engine.events_executed(), 0u);
}

TEST(SwitchLinkTest, WaitersHavePriorityOverLateArrivals) {
  Engine engine;
  SwitchLink link(engine, "l", 4096);
  std::vector<std::uint64_t> order;
  std::move(HoldLink(engine, link, 1, 100, 10, &order)).Detach();
  std::move(HoldLink(engine, link, 2, 100, 10, &order)).Detach();
  // Channel 2 is queued; a TryAcquire while someone waits must fail even
  // though the holder released (the arbiter owns the hand-off).
  engine.Run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
}

// Two channels with equal backlogs of very different frame sizes: DRR grants
// byte-proportional turns, so the small-frame channel gets several frames
// per jumbo frame instead of strict FIFO alternation.
TEST(SwitchLinkTest, DrrInterleavesByBytesNotArrivalOrder) {
  Engine engine;
  SwitchLink link(engine, "l", 4096);
  std::vector<std::uint64_t> order;
  // Channel 1: four 4096-byte frames queued first; channel 2: four
  // 1024-byte frames queued after. All enqueue at t=0 behind a holder.
  std::move(HoldLink(engine, link, 9, 1, 1, &order)).Detach();  // initial holder
  for (int i = 0; i < 4; ++i) {
    std::move(HoldLink(engine, link, 1, 4096, 1, &order)).Detach();
  }
  for (int i = 0; i < 4; ++i) {
    std::move(HoldLink(engine, link, 2, 1024, 1, &order)).Detach();
  }
  engine.Run();
  ASSERT_EQ(order.size(), 9u);
  // Every channel-1 grant costs a full quantum; channel 2's four frames fit
  // in one quantum. DRR must not leave channel 2 starving behind all four
  // jumbo frames (pure FIFO would give 9,1,1,1,1,2,2,2,2).
  std::size_t first_two = 0;
  while (first_two < order.size() && order[first_two] != 2) {
    ++first_two;
  }
  EXPECT_LT(first_two, 3u) << "small-frame channel starved behind jumbo backlog";
  EXPECT_EQ(link.bytes_granted(), 1u + 4u * 4096u + 4u * 1024u);
}

TEST(SwitchLinkTest, GrantOrderIsDeterministic) {
  auto run = [] {
    Engine engine;
    SwitchLink link(engine, "l", 2048);
    std::vector<std::uint64_t> order;
    std::move(HoldLink(engine, link, 5, 1, 3, &order)).Detach();
    for (std::uint64_t ch = 1; ch <= 4; ++ch) {
      for (int i = 0; i < 3; ++i) {
        std::move(HoldLink(engine, link, ch, 512 * ch, 2, &order)).Detach();
      }
    }
    engine.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

// --- Fabric wiring ---

struct FabricRig {
  static constexpr std::size_t kNodes = 4;

  explicit FabricRig(Fabric::Topology topo = Fabric::Topology::kStar,
                     InputBuffering rx = InputBuffering::kEarlyDemux)
      : fabric(engine, Fabric::Config{topo, 4096}) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<Node>(
          engine, "n" + std::to_string(i),
          Node::Config{MachineProfile::MicronP166(), 512, rx, 64, true}));
      fabric.Attach(nodes[i]->adapter(), static_cast<int>(i % 2));
      apps.push_back(&nodes[i]->CreateProcess("app"));
    }
  }

  InputResult Transfer(std::size_t from, std::size_t to, std::uint64_t channel,
                       std::uint64_t len, Semantics sem) {
    Endpoint tx_ep(*nodes[from], channel);
    Endpoint rx_ep(*nodes[to], channel);
    fabric.OpenChannel(channel, nodes[from]->adapter(), nodes[to]->adapter());
    constexpr Vaddr kSrc = 0x100000;
    constexpr Vaddr kDst = 0x200000;
    const std::uint32_t page = nodes[from]->page_size();
    const std::uint64_t pages = (len + page - 1) / page;
    // System-allocated outputs consume a moved-in buffer; application-
    // allocated ones send from a plain region.
    const Vaddr src = IsSystemAllocated(sem) ? tx_ep.AllocateIoBuffer(*apps[from], len) : kSrc;
    if (!IsSystemAllocated(sem)) {
      apps[from]->CreateRegion(kSrc, pages * page);
    }
    apps[to]->CreateRegion(kDst, pages * page);
    const std::vector<std::byte> payload = TestPattern(len, static_cast<unsigned char>(channel));
    EXPECT_EQ(apps[from]->Write(src, payload), AccessResult::kOk);

    InputResult result;
    auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                           Semantics s, InputResult* out) -> Task<void> {
      if (IsSystemAllocated(s)) {
        *out = co_await ep.InputSystemAllocated(app, n, s);
      } else {
        *out = co_await ep.Input(app, va, n, s);
      }
    };
    std::move(input_driver(rx_ep, *apps[to], kDst, len, sem, &result)).Detach();
    std::move(tx_ep.Output(*apps[from], src, len, sem)).Detach();
    engine.Run();
    if (result.ok) {
      std::vector<std::byte> got(len);
      EXPECT_EQ(apps[to]->Read(result.addr, got), AccessResult::kOk);
      EXPECT_EQ(got, payload);
      if (IsSystemAllocated(sem)) {
        rx_ep.FreeIoBuffer(*apps[to], result.addr);
      }
    }
    fabric.CloseChannel(channel);
    if (!IsSystemAllocated(sem)) {
      apps[from]->RemoveRegion(kSrc);
    }
    apps[to]->RemoveRegion(kDst);
    return result;
  }

  Engine engine;
  Fabric fabric;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<AddressSpace*> apps;
};

TEST(FabricTest, StarDeliversBetweenEveryNodePair) {
  FabricRig rig;
  std::uint64_t channel = 1;
  for (std::size_t from = 0; from < FabricRig::kNodes; ++from) {
    for (std::size_t to = 0; to < FabricRig::kNodes; ++to) {
      if (from == to) {
        continue;
      }
      const InputResult r =
          rig.Transfer(from, to, channel++, 3000, Semantics::kEmulatedCopy);
      EXPECT_TRUE(r.ok) << from << " -> " << to;
      EXPECT_EQ(r.bytes, 3000u);
    }
  }
  EXPECT_EQ(rig.fabric.frames_switched(), 12u);
}

TEST(FabricTest, AllSemanticsCrossTheFabric) {
  FabricRig rig;
  std::uint64_t channel = 1;
  for (const Semantics sem : kAllSemantics) {
    const InputResult r = rig.Transfer(0, 2, channel++, 5000, sem);
    EXPECT_TRUE(r.ok) << SemanticsName(sem);
    EXPECT_EQ(r.bytes, 5000u);
  }
}

TEST(FabricTest, DumbbellCrossSideTrafficUsesTrunk) {
  FabricRig rig(Fabric::Topology::kDumbbell);
  // Node 0 (side 0) -> node 1 (side 1): crosses the trunk.
  EXPECT_TRUE(rig.Transfer(0, 1, 1, 4096, Semantics::kCopy).ok);
  EXPECT_EQ(rig.fabric.trunk(0).grants(), 1u);
  EXPECT_EQ(rig.fabric.trunk(1).grants(), 0u);
  // Node 1 -> node 0 uses the opposite trunk.
  EXPECT_TRUE(rig.Transfer(1, 0, 2, 4096, Semantics::kCopy).ok);
  EXPECT_EQ(rig.fabric.trunk(1).grants(), 1u);
  // Node 0 (side 0) -> node 2 (side 0): same side, no trunk hop.
  EXPECT_TRUE(rig.Transfer(0, 2, 3, 4096, Semantics::kCopy).ok);
  EXPECT_EQ(rig.fabric.trunk(0).grants(), 1u);
}

TEST(FabricTest, PooledAndOutboardBufferingWorkAcrossFabric) {
  for (const InputBuffering rx : {InputBuffering::kPooled, InputBuffering::kOutboard}) {
    FabricRig rig(Fabric::Topology::kStar, rx);
    const InputResult r = rig.Transfer(1, 3, 1, 6000, Semantics::kCopy);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.bytes, 6000u);
  }
}

TEST(FabricTest, UnroutedChannelHasNoControlPath) {
  FabricRig rig;
  EXPECT_EQ(rig.fabric.RouteFor(rig.nodes[0]->adapter(), 99), nullptr);
  EXPECT_EQ(rig.fabric.ControlPeerFor(rig.nodes[0]->adapter(), 99), nullptr);
  rig.fabric.OpenChannel(99, rig.nodes[0]->adapter(), rig.nodes[1]->adapter());
  ASSERT_NE(rig.fabric.RouteFor(rig.nodes[0]->adapter(), 99), nullptr);
  EXPECT_EQ(rig.fabric.RouteFor(rig.nodes[0]->adapter(), 99)->dst,
            &rig.nodes[1]->adapter());
  EXPECT_EQ(rig.fabric.ControlPeerFor(rig.nodes[1]->adapter(), 99),
            &rig.nodes[0]->adapter());
  // A third party is not an end of the channel.
  EXPECT_EQ(rig.fabric.RouteFor(rig.nodes[2]->adapter(), 99), nullptr);
}

TEST(FabricTest, SameScheduleReplaysIdenticalDigest) {
  auto run = [] {
    FabricRig rig;
    for (std::uint64_t ch = 1; ch <= 6; ++ch) {
      rig.Transfer(ch % FabricRig::kNodes, (ch + 1) % FabricRig::kNodes, ch,
                   1000 + ch * 700, Semantics::kEmulatedCopy);
    }
    return rig.engine.event_digest();
  };
  EXPECT_EQ(run(), run());
}

// --- Adapter-level wiring ---

// Two bare adapters over one physical memory, for wiring tests below the
// node layer.
struct AdapterPair {
  AdapterPair()
      : cost(MachineProfile::MicronP166()),
        pm(8, 4096),
        tx(engine, pm, cost, "tx", Adapter::Config{}),
        rx(engine, pm, cost, "rx", Adapter::Config{}) {}
  ~AdapterPair() {
    for (const FrameId f : frames) {
      pm.Free(f);
    }
  }

  IoVec Buffer(std::uint32_t bytes) {
    frames.push_back(pm.Allocate());
    IoVec iov;
    iov.segments.push_back(IoSegment{frames.back(), 0, bytes});
    return iov;
  }

  Engine engine;
  CostModel cost;
  PhysicalMemory pm;
  Adapter tx;
  Adapter rx;
  std::vector<FrameId> frames;
};

// Each direction of a point-to-point link is DRR-arbitrated per channel: a
// 1 KiB frame on channel 2, queued behind a 60 KiB backlog of page frames on
// channel 1, is granted after at most one more backlog frame instead of
// waiting for the whole backlog to drain (a FIFO wire delivers it last).
TEST(PointToPointLinkTest, ChannelsShareADirectionByBytesNotArrival) {
  AdapterPair p;
  PointToPointLink link(p.engine, p.tx, p.rx);
  constexpr int kBacklog = 15;  // 15 x 4 KiB
  const IoVec page = p.Buffer(4096);
  const IoVec small = p.Buffer(1024);
  const IoVec dst = p.Buffer(4096);
  std::vector<std::uint64_t> order;
  auto note = [&](const RxCompletion& c) { order.push_back(c.channel); };
  for (int i = 0; i < kBacklog; ++i) {
    p.rx.PostReceive(1, Adapter::PostedReceive{dst, note});
    std::move(p.tx.TransmitFrame(1, page)).Detach();
  }
  p.rx.PostReceive(2, Adapter::PostedReceive{dst, note});
  std::move(p.tx.TransmitFrame(2, small)).Detach();
  p.engine.Run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBacklog + 1));
  EXPECT_LE(std::find(order.begin(), order.end(), 2u) - order.begin(), 2);
}

// Regression: a frame held back by a kLinkReorder fault keeps its transmit
// path by value, so closing the channel during the hold must not leave the
// late replay reading the route-table entry CloseChannel freed.
TEST(FabricTest, HeldFrameReplaysAfterChannelClose) {
  AdapterPair p;
  Fabric fabric(p.engine, Fabric::Config{});
  fabric.Attach(p.tx);
  fabric.Attach(p.rx);
  fabric.OpenChannel(1, p.tx, p.rx);
  FaultPlan plan(1);
  FaultRule hold;
  hold.site = FaultSite::kLinkReorder;
  hold.nth = 1;
  plan.AddRule(hold);
  p.tx.set_fault_plan(&plan);

  int delivered = 0;
  p.rx.PostReceive(1, Adapter::PostedReceive{p.Buffer(64), [&](const RxCompletion&) {
                                               ++delivered;
                                             }});
  std::move(p.tx.TransmitFrame(1, p.Buffer(64))).Detach();
  // The 64-byte frame clears the wire in ~4 us and is then held for the
  // default 50 us reorder delay; the channel closes mid-hold.
  p.engine.ScheduleAt(20 * kMicrosecond, [&] { fabric.CloseChannel(1); });
  p.engine.Run();
  EXPECT_EQ(p.tx.link_frames_reordered(), 1u);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(p.rx.frames_received(), 1u);
}

}  // namespace
}  // namespace genie
