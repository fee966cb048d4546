// Workload payload checks: the pattern kernel that fills every transfer's
// source buffer is byte-identical to the per-byte PatternByte definition,
// and a corrupted delivered byte is reported by its index.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/workload.h"
#include "src/sim/engine.h"

namespace genie {
namespace {

std::vector<std::uint64_t> KernelLengths() {
  std::vector<std::uint64_t> lengths;
  for (std::uint64_t len = 0; len <= 1024; ++len) {
    lengths.push_back(len);
  }
  for (const std::uint64_t len : {4095, 4096, 4097, 8192}) {
    lengths.push_back(len);
  }
  return lengths;
}

TEST(WorkloadPatternTest, KernelMatchesPatternByteAtEveryLength) {
  const std::pair<std::uint64_t, std::uint64_t> channel_salts[] = {
      {1, 0}, {1, 4096}, {7, 1315423911ULL + 300}, {10000, 0xdeadbeefULL}, {255, 256}};
  constexpr std::byte kGuard{0xEE};
  for (const auto& [channel, salt] : channel_salts) {
    for (const std::uint64_t len : KernelLengths()) {
      // One guard byte past the end: the kernel must not write beyond `len`.
      std::vector<std::byte> out(len + 1, kGuard);
      Workload::FillPattern(channel, salt, std::span<std::byte>(out).first(len));
      for (std::uint64_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], Workload::PatternByte(channel, salt, i))
            << "channel " << channel << " salt " << salt << " len " << len << " byte " << i;
      }
      ASSERT_EQ(out[len], kGuard) << "channel " << channel << " salt " << salt << " len " << len;
    }
  }
}

TEST(WorkloadPatternTest, CorruptedDeliveredByteIsNamedByIndex) {
  constexpr std::uint64_t kLen = 3 * 4096;
  // One closed-loop share transfer: the sender's pages go out in place, so
  // a write to the source after the output starts reaches the receiver.
  WorkloadConfig cfg;
  cfg.nodes = 2;
  TenantClassConfig cls;
  cls.tenants = 1;
  cls.transfers_per_tenant = 1;
  cls.min_bytes = kLen;
  cls.max_bytes = kLen;
  cls.semantics_mix = {Semantics::kShare};
  cfg.classes.push_back(cls);
  // Tenant 0 sends on channel first_channel from node 0, where its source
  // buffer is the first one in the workload arena; a closed loop's first
  // transfer is salted with its length.
  constexpr Vaddr kTenant0Source = 0x4000'0000;
  const std::uint64_t channel = cfg.first_channel;
  const std::uint64_t salt = kLen;

  for (const std::uint64_t bad : {std::uint64_t{0}, std::uint64_t{300}, std::uint64_t{5000},
                                  kLen - 1}) {
    Engine engine;
    Workload wl(engine, cfg);
    // Runs after the tenant wrote its payload at time 0, before the
    // adapter reads the pages.
    engine.ScheduleAt(1, [&wl, bad, channel, salt] {
      const std::byte flipped = Workload::PatternByte(channel, salt, bad) ^ std::byte{0xFF};
      ASSERT_EQ(wl.process(0).Write(kTenant0Source + bad, std::span(&flipped, 1)),
                AccessResult::kOk);
    });
    wl.Run();
    ASSERT_EQ(wl.violations().size(), 1u) << "byte " << bad;
    EXPECT_EQ(wl.violations().front(), "tenant 0: byte " + std::to_string(bad) + " of " +
                                           std::to_string(kLen) + " corrupt (salt " +
                                           std::to_string(salt) + ")");
  }
}

}  // namespace
}  // namespace genie
