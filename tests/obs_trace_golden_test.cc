// Golden per-transfer traces: for every semantics x device input-buffering
// scheme, one end-to-end datagram must emit exactly the expected sequence of
// per-transfer spans (prepare / transmit / dispose plus transfer-keyed VM
// instants), and the exported JSON must be byte-identical across two
// identically-seeded runs.
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/trace.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kSrc = 0x20000000;
constexpr Vaddr kDst = 0x30000000;
constexpr std::uint64_t kLen = 2 * kPage;

using TrackAndName = std::pair<std::string, std::string>;

// Runs one transfer (same setup as the transfer tests) with tracing attached;
// `trace` accumulates the full event stream.
InputResult TracedTransfer(Rig& rig, TraceLog& trace, Semantics sem) {
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  rig.tx_app.CreateRegion(kSrc, 16 * kPage,
                          IsSystemAllocated(sem) ? RegionState::kMovedIn
                                                 : RegionState::kUnmovable);
  if (IsApplicationAllocated(sem)) {
    rig.rx_app.CreateRegion(kDst, 16 * kPage);
  }
  const auto payload = TestPattern(kLen, 1);
  GENIE_CHECK(rig.tx_app.Write(kSrc, payload) == AccessResult::kOk);
  return rig.Transfer(kSrc, kDst, kLen, sem);
}

// The transfer-keyed events: per-transfer spans and context-prefixed VM
// instants (name carries "#<id>"), plus the adapter's receive-complete mark.
std::vector<TrackAndName> TransferEvents(const TraceLog& trace) {
  std::vector<TrackAndName> out;
  for (const TraceLog::Event& e : trace.events()) {
    const std::string name = e.Name();
    if (name.find('#') != std::string::npos || name.rfind("rx_complete", 0) == 0) {
      out.emplace_back(e.track, name);
    }
  }
  return out;
}

// The golden sequence. Identical for all three buffering schemes: buffering
// changes *when* work happens and how much, never the span structure of a
// single preposted transfer.
std::vector<TrackAndName> ExpectedSequence(Semantics sem) {
  const std::string s(SemanticsName(sem));
  std::vector<TrackAndName> v = {
      {"rx.xfer", "in#1[" + s + "].prepare"},
      {"tx.xfer", "out#1[" + s + "].prepare"},
      {"rx.nic.wire", "rx_complete " + std::to_string(kLen) + "B"},
      {"tx.xfer", "out#1[" + s + "].transmit"},
      {"tx.xfer", "out#1[" + s + "].dispose"},
  };
  if (sem == Semantics::kCopy) {
    // Copy semantics is the only scheme whose dispose copies into a
    // never-touched application buffer: the copyout faults both destination
    // pages in, keyed to the transfer that caused them.
    v.emplace_back("rx.app.vm", "in#1[" + s + "].zero_fill");
    v.emplace_back("rx.app.vm", "in#1[" + s + "].zero_fill");
  }
  v.emplace_back("rx.xfer", "in#1[" + s + "].dispose");
  return v;
}

using GoldenParam = std::tuple<Semantics, InputBuffering>;

class GoldenTraceTest : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(GoldenTraceTest, EmitsExactSpanSequence) {
  const auto [sem, buffering] = GetParam();
  Rig rig(buffering);
  TraceLog trace;
  const InputResult r = TracedTransfer(rig, trace, sem);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(TransferEvents(trace), ExpectedSequence(sem));
}

TEST_P(GoldenTraceTest, JsonIsByteIdenticalAcrossRuns) {
  const auto [sem, buffering] = GetParam();
  std::string runs[2];
  for (std::string& json : runs) {
    Rig rig(buffering);
    TraceLog trace;
    ASSERT_TRUE(TracedTransfer(rig, trace, sem).ok);
    std::ostringstream os;
    trace.WriteJson(os);
    json = os.str();
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_FALSE(runs[0].empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSemanticsAllBuffering, GoldenTraceTest,
    ::testing::Combine(::testing::ValuesIn(kAllSemantics),
                       ::testing::Values(InputBuffering::kEarlyDemux, InputBuffering::kPooled,
                                         InputBuffering::kOutboard)),
    [](const ::testing::TestParamInfo<GoldenParam>& param_info) {
      std::string name(SemanticsName(std::get<0>(param_info.param)));
      name += std::string("_") + std::string(InputBufferingName(std::get<1>(param_info.param)));
      for (char& c : name) {
        if (c == '-' || c == ' ') {
          c = '_';
        }
      }
      return name;
    });

// A write racing an emulated-copy output hits the TCOW-protected source page;
// the fault's instant lands on the sender's VM track.
TEST(TraceInstantTest, RacingWriteEmitsTcowCopyInstant) {
  Rig rig;
  TraceLog trace;
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  const auto payload = TestPattern(kLen, 1);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);

  InputResult result;
  auto input_driver = [](Endpoint& ep, AddressSpace& app, InputResult* out) -> Task<void> {
    *out = co_await ep.Input(app, kDst, kLen, Semantics::kEmulatedCopy);
  };
  std::move(input_driver(rig.rx_ep, rig.rx_app, &result)).Detach();
  std::move(rig.tx_ep.Output(rig.tx_app, kSrc, kLen, Semantics::kEmulatedCopy)).Detach();
  // Pause mid-flight: after the sender's prepare (TCOW armed), before the
  // receive completes and disposal disarms it.
  ASSERT_TRUE(rig.engine.RunUntil([&] { return rig.engine.now() >= 100 * kMicrosecond; }));
  ASSERT_EQ(rig.tx_app.Write(kSrc, TestPattern(64, 9)), AccessResult::kOk);
  rig.engine.Run();
  ASSERT_TRUE(result.ok);

  bool saw_tcow = false;
  for (const TraceLog::Event& e : trace.events()) {
    if (e.track == "tx.app.vm" && e.Name() == "tcow_copy") {
      saw_tcow = true;
      EXPECT_TRUE(e.instant);
    }
  }
  EXPECT_TRUE(saw_tcow);
}

// A source page evicted to backing store before the output is paged back in
// by the prepare's copyin — and the page-in instant is keyed to the transfer.
TEST(TraceInstantTest, PageinDuringPrepareIsTransferKeyed) {
  Rig rig;
  TraceLog trace;
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  const auto payload = TestPattern(kLen, 1);
  ASSERT_EQ(rig.tx_app.Write(kSrc, payload), AccessResult::kOk);
  // Force the freshly written source pages out to backing store.
  ASSERT_GT(rig.sender.pageout().EvictUntilFree(512), 0u);

  const InputResult r = rig.Transfer(kSrc, kDst, kLen, Semantics::kCopy);
  ASSERT_TRUE(r.ok);

  std::size_t keyed_pageins = 0;
  for (const TraceLog::Event& e : trace.events()) {
    if (e.track == "tx.app.vm" && e.Name() == "out#1[copy].pagein") {
      ++keyed_pageins;
    }
  }
  // Both source pages were evicted and both fault back in under the
  // transfer's context.
  EXPECT_EQ(keyed_pageins, 2u);
}

}  // namespace
}  // namespace genie
