#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel_token.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/status.h"

namespace bix {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad base");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad base");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad base");
}

TEST(StatusTest, AllErrorCodesRender) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  EXPECT_EQ(Status::InvalidArgument("w").ToString(), "InvalidArgument: w");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::Corruption("y").ToString(), "Corruption: y");
  EXPECT_EQ(Status::NotSupported("z").ToString(), "NotSupported: z");
  EXPECT_EQ(Status::Unavailable("u").ToString(), "Unavailable: u");
  EXPECT_EQ(Status::DeadlineExceeded("d").ToString(), "DeadlineExceeded: d");
  EXPECT_EQ(Status::Cancelled("c").ToString(), "Cancelled: c");
}

TEST(StatusTest, OnlyUnavailableIsRetryable) {
  EXPECT_TRUE(Status::Unavailable("overloaded").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("w").IsRetryable());
  EXPECT_FALSE(Status::OutOfRange("x").IsRetryable());
  EXPECT_FALSE(Status::Corruption("y").IsRetryable());
  EXPECT_FALSE(Status::NotSupported("z").IsRetryable());
  // An exhausted time budget or an explicit cancel must terminate retry
  // loops, not feed them: retrying cannot un-expire a deadline.
  EXPECT_FALSE(Status::DeadlineExceeded("d").IsRetryable());
  EXPECT_FALSE(Status::Cancelled("c").IsRetryable());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kOutOfRange);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / common reference vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("a", 1), 0xC1D04330u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  const std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposesAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32c(data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
  // Splits inside a lane of the three-lane SSE4.2 loop (8 KiB long lanes,
  // 256 B short lanes): each side runs its own stripes, and the halves
  // still compose.
  Rng rng(81);
  std::vector<uint8_t> buf(2 * 3 * 8192 + 3 * 256 + 5);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  const uint32_t buf_whole = Crc32c(buf.data(), buf.size());
  for (size_t split : {size_t{100}, size_t{8192 + 13}, size_t{2 * 8192 + 4095},
                       size_t{3 * 8192 + 256 + 77}, size_t{5 * 8192 + 1}}) {
    uint32_t crc = Crc32c(buf.data(), split);
    crc = Crc32cExtend(crc, buf.data() + split, buf.size() - split);
    EXPECT_EQ(crc, buf_whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsEverySingleBitFlip) {
  std::vector<uint8_t> buf = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42, 0xFF, 0x07,
                              0x13, 0x37, 0x00, 0x00, 0xAA, 0x55, 0x01, 0x80};
  const uint32_t clean = Crc32c(buf.data(), buf.size());
  for (size_t bit = 0; bit < buf.size() * 8; ++bit) {
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32c(buf.data(), buf.size()), clean) << "bit " << bit;
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

TEST(Crc32cTest, SliceLoopMatchesByteLoop) {
  // Lengths around the 8-byte slicing boundary, unaligned starts.
  Rng rng(55);
  std::vector<uint8_t> buf(257);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{63}, size_t{64}, size_t{250}}) {
      if (offset + len > buf.size()) continue;
      // Byte-at-a-time reference via repeated 1-byte extends.
      uint32_t ref = 0;
      for (size_t i = 0; i < len; ++i) {
        ref = Crc32cExtend(ref, buf.data() + offset + i, 1);
      }
      EXPECT_EQ(Crc32c(buf.data() + offset, len), ref)
          << "offset " << offset << " len " << len;
    }
  }
}

// The CPUID-selected implementation (the SSE4.2 instruction on x86-64,
// unless BIX_FORCE_SCALAR pins the portable path) against the portable
// slice-by-8 reference: every short length at every alignment, a 1 MiB
// buffer, and running checksums handed from one implementation to the
// other mid-buffer.
TEST(Crc32cTest, SelectedMatchesPortableReference) {
  Rng rng(20261017);
  constexpr size_t kMiB = size_t{1} << 20;
  std::vector<uint8_t> buf(kMiB + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.engine()());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, len), Crc32cExtendPortable(0, p, len))
          << "offset " << offset << " len " << len;
    }
  }
  // Lane boundaries of the three-lane loop: one short stripe (3 x 256 B)
  // and one long stripe (3 x 8 KiB), each minus one, exact and plus one,
  // and two long stripes + one short stripe + a 7-byte tail.
  for (size_t len : {size_t{767}, size_t{768}, size_t{769}, size_t{24575},
                     size_t{24576}, size_t{24577},
                     size_t{49152 + 768 + 7}}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, len), Crc32cExtendPortable(0, p, len))
          << "offset " << offset << " len " << len;
    }
  }
  const uint32_t whole = Crc32cExtendPortable(0, buf.data(), kMiB);
  EXPECT_EQ(Crc32c(buf.data(), kMiB), whole);
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{4095}, size_t{65539}, kMiB - 1, kMiB}) {
    const uint8_t* rest = buf.data() + split;
    EXPECT_EQ(Crc32cExtend(Crc32cExtendPortable(0, buf.data(), split), rest,
                           kMiB - split),
              whole)
        << "portable then selected, split " << split;
    EXPECT_EQ(Crc32cExtendPortable(Crc32cExtend(0, buf.data(), split), rest,
                                   kMiB - split),
              whole)
        << "selected then portable, split " << split;
  }
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 8), 0u);
  EXPECT_EQ(CeilDiv(1, 8), 1u);
  EXPECT_EQ(CeilDiv(8, 8), 1u);
  EXPECT_EQ(CeilDiv(9, 8), 2u);
  EXPECT_EQ(CeilDiv(10, 0), 0u);
}

TEST(MathTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(4), 2u);
  EXPECT_EQ(CeilLog2(50), 6u);
  EXPECT_EQ(CeilLog2(64), 6u);
  EXPECT_EQ(CeilLog2(65), 7u);
}

TEST(MathTest, SaturatingPow) {
  EXPECT_EQ(SaturatingPow(2, 10), 1024u);
  EXPECT_EQ(SaturatingPow(10, 0), 1u);
  EXPECT_EQ(SaturatingPow(2, 64), UINT64_MAX);
  EXPECT_EQ(SaturatingPow(UINT64_MAX, 2), UINT64_MAX);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(CancelTokenTest, ManualTokenNeverExpiresUntilCancelled) {
  auto token = CancelToken::Manual();
  EXPECT_FALSE(token->has_deadline());
  EXPECT_FALSE(token->cancelled());
  EXPECT_TRUE(token->Check().ok());
  const auto now = std::chrono::steady_clock::now();
  EXPECT_FALSE(token->ExpiredAt(now + std::chrono::hours(1000)));
  EXPECT_TRUE(std::isinf(token->RemainingSeconds(now)));

  token->Cancel();
  EXPECT_TRUE(token->cancelled());
  EXPECT_EQ(token->Check().code(), Status::Code::kCancelled);
  token->Cancel();  // idempotent
  EXPECT_EQ(token->Check().code(), Status::Code::kCancelled);
}

TEST(CancelTokenTest, DeadlineVerdictFlipsExactlyAtDeadline) {
  const CancelToken::Clock::time_point t0{};
  const auto deadline = t0 + std::chrono::milliseconds(10);
  auto token = CancelToken::WithDeadline(deadline);
  EXPECT_TRUE(token->has_deadline());
  EXPECT_TRUE(token->CheckAt(t0).ok());
  EXPECT_FALSE(token->ExpiredAt(deadline - std::chrono::nanoseconds(1)));
  EXPECT_TRUE(token->ExpiredAt(deadline));  // inclusive: now >= deadline
  EXPECT_EQ(token->CheckAt(deadline).code(), Status::Code::kDeadlineExceeded);
  EXPECT_NEAR(token->RemainingSeconds(t0), 10e-3, 1e-12);
  EXPECT_LT(token->RemainingSeconds(deadline + std::chrono::milliseconds(5)),
            0.0);
  // Cancellation wins ties with an expired deadline (explicit intent).
  token->Cancel();
  EXPECT_EQ(token->CheckAt(deadline).code(), Status::Code::kCancelled);
}

TEST(CancelTokenTest, WaitForCancelWakesOnCancel) {
  auto token = CancelToken::Manual();
  // Expired wait without a cancel: runs the full (tiny) duration.
  EXPECT_FALSE(token->WaitForCancel(1e-3));
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token->Cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(token->WaitForCancel(30.0));  // returns long before 30s
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  canceller.join();
  // Already-cancelled: returns immediately.
  EXPECT_TRUE(token->WaitForCancel(30.0));
}

TEST(VirtualClockTest, AdvancesOnlyOnDemand) {
  VirtualClock clock;
  const auto t0 = clock.Now();
  EXPECT_EQ(clock.Now(), t0);  // no background flow of time
  clock.SleepFor(1.5);
  EXPECT_EQ(std::chrono::duration<double>(clock.Now() - t0).count(), 1.5);
  clock.Advance(0.5);
  EXPECT_DOUBLE_EQ(clock.slept_seconds(), 2.0);

  // A cancelled token's sleep is a no-op — simulated time must not jump
  // past the cancellation.
  auto token = CancelToken::Manual();
  token->Cancel();
  const auto before = clock.Now();
  clock.SleepFor(100.0, token.get());
  EXPECT_EQ(clock.Now(), before);
}

TEST(RealClockTest, SleepForHonoursCancellation) {
  RealClock* clock = RealClock::Get();
  auto token = CancelToken::Manual();
  token->Cancel();
  const auto t0 = clock->Now();
  clock->SleepFor(30.0, token.get());  // pre-cancelled: returns immediately
  EXPECT_LT(std::chrono::duration<double>(clock->Now() - t0).count(), 5.0);
}

}  // namespace
}  // namespace bix
