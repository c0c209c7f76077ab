#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/byte_io.h"
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

// The reference SplitMix64 stream from state 0 (each output mixes the
// state advanced by the golden-ratio increment).
TEST(RngTest, SplitMix64MatchesReferenceStream) {
  EXPECT_EQ(SplitMix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(SplitMix64(0x9E3779B97F4A7C15ull), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(SplitMix64(0), Mix64(0x9E3779B97F4A7C15ull));
  EXPECT_EQ(UnitDraw(0), 0.0);
  EXPECT_EQ(UnitDraw(uint64_t{1} << 63), 0.5);
  EXPECT_LT(UnitDraw(~uint64_t{0}), 1.0);
}

// --- util/byte_io -------------------------------------------------------

// The little-endian image of `words`, one byte at a time.
template <typename T>
std::vector<uint8_t> ReferenceImage(const std::vector<T>& words) {
  std::vector<uint8_t> out;
  for (T w : words) {
    for (size_t b = 0; b < sizeof(T); ++b) {
      out.push_back(static_cast<uint8_t>(w >> (8 * b)));
    }
  }
  return out;
}

TEST(ByteIoTest, ScalarsAreLittleEndian) {
  std::vector<uint8_t> out;
  AppendLe16(&out, 0x0102);
  AppendLe32(&out, 0x03040506);
  AppendLe64(&out, 0x0708090A0B0C0D0Eull);
  EXPECT_EQ(out, (std::vector<uint8_t>{0x02, 0x01, 0x06, 0x05, 0x04, 0x03,
                                       0x0E, 0x0D, 0x0C, 0x0B, 0x0A, 0x09,
                                       0x08, 0x07}));
  uint8_t b[14];
  StoreLe16(b, 0x0102);
  StoreLe32(b + 2, 0x03040506);
  StoreLe64(b + 6, 0x0708090A0B0C0D0Eull);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), b));
  EXPECT_EQ(LoadLe16(b), 0x0102u);
  EXPECT_EQ(LoadLe32(b + 2), 0x03040506u);
  EXPECT_EQ(LoadLe64(b + 6), 0x0708090A0B0C0D0Eull);
}

// Both array images, the scalar loads and ByteReader's array reads agree
// with the byte-at-a-time reference at every alignment, for 0-17 elements.
TEST(ByteIoTest, ArrayImagesRoundTripAtEveryAlignment) {
  for (size_t len = 0; len <= 17; ++len) {
    std::vector<uint64_t> w64(len);
    std::vector<uint32_t> w32(len);
    for (size_t i = 0; i < len; ++i) {
      w64[i] = SplitMix64(100 * len + i);
      w32[i] = static_cast<uint32_t>(w64[i] >> 16);
    }
    const std::vector<uint8_t> ref64 = ReferenceImage(w64);
    const std::vector<uint8_t> ref32 = ReferenceImage(w32);
    for (size_t align = 0; align < 8; ++align) {
      SCOPED_TRACE("len " + std::to_string(len) + " align " +
                   std::to_string(align));
      std::vector<uint8_t> image(align, 0xA5);
      AppendWordsLe(w64.data(), 8 * len, &image);
      AppendWords32Le(w32.data(), len, &image);
      ASSERT_EQ(image.size(), align + 12 * len);
      const uint8_t* p64 = image.data() + align;
      const uint8_t* p32 = p64 + 8 * len;
      EXPECT_TRUE(std::equal(ref64.begin(), ref64.end(), p64));
      EXPECT_TRUE(std::equal(ref32.begin(), ref32.end(), p32));
      for (size_t i = 0; i < len; ++i) {
        EXPECT_EQ(LoadLe64(p64 + 8 * i), w64[i]);
        EXPECT_EQ(LoadLe32(p32 + 4 * i), w32[i]);
      }
      std::vector<uint64_t> back64(len);
      std::vector<uint32_t> back32(len);
      LoadWordsLe(p64, 8 * len, back64.data());
      LoadWords32Le(p32, len, back32.data());
      EXPECT_EQ(back64, w64);
      EXPECT_EQ(back32, w32);

      ByteReader r(p64, image.size() - align);
      std::vector<uint64_t> read64(len);
      std::vector<uint32_t> read32(len);
      r.Le64s(read64.data(), len);
      r.Le32s(read32.data(), len);
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.remaining(), 0u);
      EXPECT_EQ(read64, w64);
      EXPECT_EQ(read32, w32);
    }
  }
}

// A byte length that ends mid-word: the image is a prefix, and loading it
// back zeroes the partial word's high bytes.
TEST(ByteIoTest, PartialWordImagesZeroTheHighBytes) {
  const std::vector<uint64_t> words = {SplitMix64(1), SplitMix64(2),
                                       SplitMix64(3)};
  const std::vector<uint8_t> ref = ReferenceImage(words);
  for (size_t n = 0; n <= 17; ++n) {
    std::vector<uint8_t> image;
    AppendWordsLe(words.data(), n, &image);
    EXPECT_EQ(image, std::vector<uint8_t>(ref.begin(), ref.begin() + n)) << n;
    std::vector<uint64_t> back(3, ~uint64_t{0});
    LoadWordsLe(image.data(), n, back.data());
    for (size_t i = 0; i < CeilDiv(n, 8); ++i) {
      const size_t bytes = std::min<size_t>(8, n - 8 * i);
      const uint64_t mask =
          bytes == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * bytes)) - 1;
      EXPECT_EQ(back[i], words[i] & mask) << n;
    }
  }
}

TEST(ByteIoTest, ReadPastEndFailsAndStaysFailed) {
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5, 6};
  ByteReader r(bytes);
  EXPECT_EQ(r.Le32(), 0x04030201u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.Le32(), 0u);  // two bytes left
  EXPECT_FALSE(r.ok());
  // The failed read consumed nothing, and every later read fails too —
  // even ones the remaining bytes could satisfy.
  EXPECT_EQ(r.offset(), 4u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_EQ(r.Le16(), 0u);
  EXPECT_EQ(r.Chars(1), "");
  EXPECT_EQ(r.Take(0), nullptr);
  uint32_t untouched = 7;
  r.Le32s(&untouched, 0);
  EXPECT_EQ(untouched, 7u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.offset(), 4u);
}

TEST(ByteIoTest, NeedBoundsCountsByTheBytesLeft) {
  const std::vector<uint8_t> bytes(16);
  {
    ByteReader r(bytes);
    EXPECT_TRUE(r.Need(2, 8));
    EXPECT_TRUE(r.Need(16, 1));
    EXPECT_TRUE(r.Need(0, 8));
    EXPECT_TRUE(r.ok());  // Need consumes nothing
    EXPECT_FALSE(r.Need(3, 8));
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.Need(0, 1));  // sticky
  }
  {
    ByteReader r(bytes);
    r.Le64();
    EXPECT_FALSE(r.Need(2, 8));  // what remains, not the whole buffer
  }
  {
    // (1 << 62) * 8 wraps to 0 in 64 bits; the check must not.
    ByteReader r(bytes);
    EXPECT_FALSE(r.Need(uint64_t{1} << 62, 8));
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(bytes);
    EXPECT_FALSE(r.Need(~uint64_t{0}, 4));
  }
}

TEST(ByteIoTest, FileWriterStreamsWithARunningCrc) {
  const std::string path = ::testing::TempDir() + "/byte_io_writer.bin";
  const std::vector<uint32_t> w32 = {1, 0x80000000u, 3};
  const std::vector<uint64_t> w64 = {~uint64_t{0}, 5};
  std::vector<uint8_t> expected = {0x7F};
  AppendLe32(&expected, 0xDEADBEEFu);
  AppendLe64(&expected, 42);
  AppendWords32Le(w32.data(), w32.size(), &expected);
  AppendWordsLe(w64.data(), 8 * w64.size(), &expected);
  {
    FileWriter w(path);
    ASSERT_TRUE(w.is_open());
    w.U8(0x7F);
    w.Le32(0xDEADBEEFu);
    w.Le64(42);
    EXPECT_EQ(w.crc(), Crc32c(expected.data(), 13));
    w.ResetCrc();
    w.Le32s(w32.data(), w32.size());
    w.Le64s(w64.data(), w64.size());
    EXPECT_EQ(w.crc(), Crc32c(expected.data() + 13, expected.size() - 13));
    EXPECT_TRUE(w.Close());
  }
  Result<std::vector<uint8_t>> read = ReadFileBytes(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), expected);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFileBytes(path).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_FALSE(FileWriter(::testing::TempDir() + "/no/such/dir/f").is_open());
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
