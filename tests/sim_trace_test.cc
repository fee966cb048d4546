// Execution tracing: span/instant recording and Chrome trace-event JSON
// export, plus the Genie hooks (CPU operation spans, wire frame spans).
#include "src/sim/trace.h"

#include <sstream>

#include <gtest/gtest.h>

#include "tests/genie_test_util.h"

namespace genie {
namespace {

TEST(TraceLogTest, RecordsSpansAndInstants) {
  TraceLog trace;
  trace.Span("cpu", "copyin", "genie", 100, 500);
  trace.Instant("wire", "frame-start", "net", 250);
  EXPECT_EQ(trace.event_count(), 2u);
  trace.Clear();
  EXPECT_EQ(trace.event_count(), 0u);
}

TEST(TraceLogTest, JsonShapeIsValid) {
  TraceLog trace;
  trace.Span("tx.cpu", "reference", "genie", 0, 5000);
  trace.Span("wire", "frame 4096B", "net", 5000, 250000);
  trace.Instant("rx.cpu", "interrupt", "genie", 250000);
  std::ostringstream os;
  trace.WriteJson(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');  // Trailing newline after ']'.
  // Metadata rows name the tracks; spans carry ph:X with durations in us.
  EXPECT_NE(json.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X","dur":245)"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"i")"), std::string::npos);
  // Balanced braces (crude well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TraceLogTest, EscapesSpecialCharacters) {
  TraceLog trace;
  trace.Instant("t", "quote\"back\\slash", "c", 0);
  std::ostringstream os;
  trace.WriteJson(os);
  EXPECT_NE(os.str().find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(TraceLogTest, EscapesAllControlCharacters) {
  TraceLog trace;
  // Every kind of character JSON forbids raw inside a string: the named
  // short escapes and an arbitrary control byte (0x01) that needs \u00XX.
  trace.Instant("t", std::string("a\nb\rc\td\be\ff") + '\x01' + "g", "c", 0);
  std::ostringstream os;
  trace.WriteJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("a\\nb\\rc\\td\\be\\ff\\u0001g"), std::string::npos);
  // None of the raw bytes may survive into the output (newlines between
  // rows are structural; the payload's would appear glued to 'a'..'f').
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find("a\nb"), std::string::npos);
  EXPECT_EQ(json.find("c\td"), std::string::npos);
}

TEST(TraceLogTest, EscapesTrackNamesInMetadata) {
  TraceLog trace;
  trace.Instant("tr\"ack\n1", "event", "c", 0);
  std::ostringstream os;
  trace.WriteJson(os);
  const std::string json = os.str();
  // The track name appears (escaped) in the thread_name metadata row.
  EXPECT_NE(json.find("tr\\\"ack\\n1"), std::string::npos);
  EXPECT_EQ(json.find("ack\n1"), std::string::npos);
}

TEST(TraceLogTest, ClockDefaultsToZeroAndFollowsInstalledCallback) {
  TraceLog trace;
  EXPECT_EQ(trace.Now(), 0);
  SimTime t = 42 * kMicrosecond;
  trace.set_clock([&t] { return t; });
  EXPECT_EQ(trace.Now(), 42 * kMicrosecond);
  t = 99 * kMicrosecond;
  EXPECT_EQ(trace.Now(), 99 * kMicrosecond);
}

TEST(TraceLogTest, ContextIsEmptyByDefaultAndSettable) {
  TraceLog trace;
  EXPECT_FALSE(trace.context());
  const TransferKey key{nullptr, 1, 1, TransferDir::kOut, Semantics::kCopy};
  trace.set_context(key);
  EXPECT_EQ(trace.context(), key);
  trace.set_context(TransferKey{});
  EXPECT_FALSE(trace.context());
}

TEST(TraceLogTest, TypedEventNamesAreFormattedFromKeyAndStage) {
  TraceLog trace;
  const TransferKey out{nullptr, 1, 3, TransferDir::kOut, Semantics::kEmulatedCopy};
  const TransferKey in{nullptr, 1, 4, TransferDir::kIn, Semantics::kWeakMove};
  trace.Span("t", out, TraceStage::kPrepare, "xfer", 0, 10);
  trace.Instant("t", in, TraceStage::kZeroFill, "vm", 5);
  trace.Instant("t", TransferKey{}, TraceStage::kZeroFill, "vm", 6);
  trace.Span("t", "frame 4096B", "net", 10, 20, /*flow=*/1, TraceStage::kWire);
  ASSERT_EQ(trace.event_count(), 4u);
  EXPECT_EQ(TransferLabel(out), "out#3[emulated copy]");
  EXPECT_EQ(trace.events()[0].Name(), "out#3[emulated copy].prepare");
  EXPECT_EQ(trace.events()[1].Name(), "in#4[weak move].zero_fill");
  EXPECT_EQ(trace.events()[2].Name(), "zero_fill");
  EXPECT_EQ(trace.events()[3].Name(), "frame 4096B");
  std::ostringstream os;
  trace.WriteJson(os);
  EXPECT_NE(os.str().find(R"("name":"out#3[emulated copy].prepare")"), std::string::npos);
}

TEST(TraceLogTest, RingCapacityBoundsLogAndCountsDrops) {
  TraceLog trace;
  trace.set_capacity(8);
  EXPECT_EQ(trace.capacity(), 8u);
  for (int i = 0; i < 100; ++i) {
    trace.Instant("t", "e" + std::to_string(i), "c", i * kMicrosecond);
  }
  // Amortized eviction: the buffer never exceeds 2x capacity and at least the
  // last `capacity` events survive, in order, with the drop count exact.
  EXPECT_LE(trace.event_count(), 16u);
  EXPECT_GE(trace.event_count(), 8u);
  EXPECT_EQ(trace.dropped_events() + trace.event_count(), 100u);
  EXPECT_EQ(trace.events().back().Name(), "e99");
  const std::size_t first_kept = 100 - trace.event_count();
  EXPECT_EQ(trace.events().front().Name(), "e" + std::to_string(first_kept));
  trace.Clear();
  EXPECT_EQ(trace.dropped_events(), 0u);
}

TEST(TraceLogTest, UnboundedByDefault) {
  TraceLog trace;
  for (int i = 0; i < 5000; ++i) {
    trace.Instant("t", "e", "c", 0);
  }
  EXPECT_EQ(trace.event_count(), 5000u);
  EXPECT_EQ(trace.dropped_events(), 0u);
}

TEST(TraceLogTest, RegisterNodeIsIdempotentPerOwner) {
  TraceLog trace;
  int owner_a = 0;
  trace.RegisterNode(&owner_a, "node.cpu");
  trace.RegisterNode(&owner_a, "node.cpu");  // re-claiming one's own is fine
  trace.UnregisterNode(&owner_a);
  // After unregistration another owner may claim the freed name.
  int owner_b = 0;
  trace.RegisterNode(&owner_b, "node.cpu");
  trace.UnregisterNode(&owner_b);
}

TEST(TraceLogDeathTest, ForeignTrackClaimAborts) {
  TraceLog trace;
  int owner_a = 0;
  int owner_b = 0;
  trace.RegisterNode(&owner_a, "node.cpu");
  EXPECT_DEATH(trace.RegisterNode(&owner_b, "node.cpu"), "already registered");
}

TEST(TraceLogTest, TwoNodesSharingOneLogKeepDistinctTracks) {
  // The regression the (node, name) dedup exists for: two Nodes attached to
  // one process-wide TraceLog must not collide on track names.
  TraceLog trace;
  Engine engine;
  Node a(engine, "alpha", Node::Config{});
  Node b(engine, "beta", Node::Config{});
  a.set_trace(&trace);
  b.set_trace(&trace);  // distinct names ("alpha.*" vs "beta.*"): no abort
  a.set_trace(nullptr);
  b.set_trace(nullptr);
}

TEST(TraceLogTest, FlowSpansCarryBindId) {
  TraceLog trace;
  trace.Span("tx.xfer", "out#1[copy].transmit", "xfer", 0, 1000, /*flow=*/0x2a);
  trace.Span("wire", "frame 4096B", "net", 1000, 2000, /*flow=*/0x2a);
  trace.Span("rx.cpu", "plain", "genie", 0, 500);  // flow 0: no arrow
  trace.Instant("rx.xfer", "rx_complete", "net", 2000, /*flow=*/0x2a);
  std::ostringstream os;
  trace.WriteJson(os);
  const std::string json = os.str();
  // Both flow-stamped spans chain through the same bind_id.
  std::size_t arrows = 0;
  for (std::size_t at = json.find(R"("bind_id":"0x2a")"); at != std::string::npos;
       at = json.find(R"("bind_id":"0x2a")", at + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 2u);
  EXPECT_NE(json.find(R"("flow_in":true,"flow_out":true)"), std::string::npos);
  // The flow-0 span must not grow an arrow.
  const std::size_t plain = json.find(R"("name":"plain")");
  ASSERT_NE(plain, std::string::npos);
  const std::size_t plain_end = json.find('\n', plain);
  EXPECT_EQ(json.substr(plain, plain_end - plain).find("bind_id"), std::string::npos);
}

TEST(TraceLogTest, GenieTransferProducesStructuredTrace) {
  TraceLog trace;
  Rig rig;
  rig.sender.set_trace(&trace);
  rig.receiver.set_trace(&trace);
  constexpr Vaddr kBuf = 0x20000000;
  rig.tx_app.CreateRegion(kBuf, 16 * 4096);
  rig.rx_app.CreateRegion(kBuf, 16 * 4096);
  ASSERT_EQ(rig.tx_app.Write(kBuf, TestPattern(8 * 4096, 1)), AccessResult::kOk);
  const InputResult r = rig.Transfer(kBuf, kBuf, 8 * 4096, Semantics::kEmulatedCopy);
  ASSERT_TRUE(r.ok);

  EXPECT_GT(trace.event_count(), 5u);
  std::ostringstream os;
  trace.WriteJson(os);
  const std::string json = os.str();
  // The emulated-copy critical path shows up by name on the right tracks.
  EXPECT_NE(json.find("tx.cpu"), std::string::npos);
  EXPECT_NE(json.find("rx.cpu"), std::string::npos);
  EXPECT_NE(json.find("Reference"), std::string::npos);
  EXPECT_NE(json.find("Swap"), std::string::npos);
  EXPECT_NE(json.find(".wire"), std::string::npos);
  EXPECT_NE(json.find("frame 32768B"), std::string::npos);
}

TEST(TraceLogTest, DisabledTraceCostsNothing) {
  Rig rig;  // No set_trace: all hooks are no-ops.
  constexpr Vaddr kBuf = 0x20000000;
  rig.tx_app.CreateRegion(kBuf, 16 * 4096);
  rig.rx_app.CreateRegion(kBuf, 16 * 4096);
  ASSERT_EQ(rig.tx_app.Write(kBuf, TestPattern(4096, 1)), AccessResult::kOk);
  EXPECT_TRUE(rig.Transfer(kBuf, kBuf, 4096, Semantics::kEmulatedCopy).ok);
}

}  // namespace
}  // namespace genie
