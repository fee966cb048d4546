// Credit-based flow control at the adapter level (Credit Net, refs [2],[14]).
#include <optional>

#include <gtest/gtest.h>

#include "src/cost/cost_model.h"
#include "src/net/adapter.h"
#include "src/net/fabric.h"
#include "src/sim/engine.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;

class FlowControlTest : public ::testing::Test {
 protected:
  FlowControlTest() : cost_(MachineProfile::MicronP166()), pm_(64, kPage) {
    Adapter::Config cfg;
    cfg.flow_control = true;
    tx_ = std::make_unique<Adapter>(eng_, pm_, cost_, "tx", cfg);
    rx_ = std::make_unique<Adapter>(eng_, pm_, cost_, "rx", cfg);
    wire_ = std::make_unique<PointToPointLink>(eng_, *tx_, *rx_);
  }

  IoVec MakeBuffer(std::size_t bytes) {
    IoVec iov;
    std::size_t remaining = bytes;
    while (remaining > 0) {
      const FrameId f = pm_.Allocate();
      frames_.push_back(f);
      const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::size_t>(kPage, remaining));
      iov.segments.push_back(IoSegment{f, 0, n});
      remaining -= n;
    }
    return iov;
  }

  void TearDown() override {
    for (const FrameId f : frames_) {
      pm_.Free(f);
    }
  }

  Engine eng_;
  CostModel cost_;
  PhysicalMemory pm_;
  std::unique_ptr<Adapter> tx_;
  std::unique_ptr<Adapter> rx_;
  std::unique_ptr<PointToPointLink> wire_;
  std::vector<FrameId> frames_;
};

TEST_F(FlowControlTest, TransmissionBlocksWithoutCredit) {
  const IoVec src = MakeBuffer(kPage);
  std::move(tx_->TransmitFrame(1, src)).Detach();
  eng_.Run();
  // No posted buffer, no credit: the frame never left and was not dropped.
  EXPECT_EQ(tx_->frames_sent(), 0u);
  EXPECT_EQ(rx_->frames_dropped_no_buffer(), 0u);
  EXPECT_EQ(tx_->credit_waiters(1), 1u);
}

TEST_F(FlowControlTest, PostingABufferUnblocksTheSender) {
  const IoVec src = MakeBuffer(kPage);
  const IoVec dst = MakeBuffer(kPage);
  std::move(tx_->TransmitFrame(1, src)).Detach();
  eng_.Run();
  ASSERT_EQ(tx_->credit_waiters(1), 1u);

  std::optional<RxCompletion> completion;
  rx_->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion& c) { completion = c; }});
  eng_.Run();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(tx_->frames_sent(), 1u);
  EXPECT_EQ(tx_->credit_waiters(1), 0u);
  EXPECT_EQ(tx_->tx_credits(1), 0u);  // Credit consumed by the send.
}

TEST_F(FlowControlTest, CreditsAccumulatePerChannel) {
  const IoVec dst = MakeBuffer(kPage);
  rx_->PostReceive(1, Adapter::PostedReceive{dst, nullptr});
  rx_->PostReceive(1, Adapter::PostedReceive{dst, nullptr});
  rx_->PostReceive(2, Adapter::PostedReceive{dst, nullptr});
  eng_.Run();  // Credit latency elapses.
  EXPECT_EQ(tx_->tx_credits(1), 2u);
  EXPECT_EQ(tx_->tx_credits(2), 1u);
  EXPECT_EQ(tx_->tx_credits(3), 0u);
}

TEST_F(FlowControlTest, CreditReturnTakesControlCellLatency) {
  const IoVec dst = MakeBuffer(kPage);
  rx_->PostReceive(1, Adapter::PostedReceive{dst, nullptr});
  // Before the credit latency elapses, the sender has no credit.
  eng_.RunFor(4 * kMicrosecond);
  EXPECT_EQ(tx_->tx_credits(1), 0u);
  eng_.RunFor(2 * kMicrosecond);  // Past the 5 us default.
  EXPECT_EQ(tx_->tx_credits(1), 1u);
}

TEST_F(FlowControlTest, BlockedSendersServedFifo) {
  const IoVec src = MakeBuffer(kPage);
  const IoVec dst = MakeBuffer(kPage);
  std::vector<int> order;
  // Two sends block; completions must come back in submission order.
  std::move(tx_->TransmitFrame(1, src)).Detach();
  std::move(tx_->TransmitFrame(1, src)).Detach();
  eng_.Run();
  EXPECT_EQ(tx_->credit_waiters(1), 2u);
  rx_->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) { order.push_back(1); }});
  rx_->PostReceive(1, Adapter::PostedReceive{dst, [&](const RxCompletion&) { order.push_back(2); }});
  eng_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(FlowControlTest, TaggedFramesBypassCredits) {
  // Sender-managed buffers are persistent: tagged frames need no credit.
  const IoVec src = MakeBuffer(kPage);
  const IoVec named = MakeBuffer(kPage);
  std::optional<RxCompletion> completion;
  rx_->RegisterNamedBuffer(1, 7,
                           Adapter::PostedReceive{named, [&](const RxCompletion& c) {
                                                    completion = c;
                                                  }});
  std::move(tx_->TransmitFrame(1, src, 0, /*tag=*/7)).Detach();
  eng_.Run();
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->tag, 7u);
  rx_->UnregisterNamedBuffer(1, 7);
}

TEST_F(FlowControlTest, DuplicateNamedTagAborts) {
  const IoVec named = MakeBuffer(kPage);
  rx_->RegisterNamedBuffer(1, 9, Adapter::PostedReceive{named, nullptr});
  EXPECT_DEATH(rx_->RegisterNamedBuffer(1, 9, Adapter::PostedReceive{named, nullptr}),
               "already registered");
  rx_->UnregisterNamedBuffer(1, 9);
}

}  // namespace
}  // namespace genie
