// Unit tests: byte serialization, the Internet checksum, the seeded RNG
// and the Hooks observer list.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/byte_buffer.hpp"
#include "util/checksum.hpp"
#include "util/hooks.hpp"
#include "util/rng.hpp"

namespace mhrp::util {
namespace {

TEST(ByteBuffer, RoundTripsIntegers) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 15u);

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, BigEndianOnTheWire) {
  ByteWriter w;
  w.u16(0x0102);
  auto bytes = w.take();
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x02);
}

TEST(ByteBuffer, ReaderThrowsOnTruncation) {
  // The reader checks its span, not the memory behind it: the fourth
  // byte exists but lies outside the three-byte span.
  std::vector<std::uint8_t> bytes{1, 2, 3, 4};
  ByteReader r(std::span<const std::uint8_t>(bytes).first(3));
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_THROW((void)r.u16(), CodecError);
}

TEST(ByteBuffer, PatchU16OverwritesInPlace) {
  ByteWriter w;
  w.u16(0);
  w.u32(42);
  w.patch_u16(0, 0xBEEF);
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 42u);
}

TEST(ByteBuffer, PatchOutOfRangeThrows) {
  ByteWriter w;
  w.u8(1);
  EXPECT_THROW(w.patch_u16(0, 7), CodecError);
}

TEST(ByteBuffer, SkipAndRest) {
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  ByteReader r(data);
  r.skip(2);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.rest().size(), 3u);
  EXPECT_EQ(r.rest()[0], 3);
  EXPECT_THROW(r.skip(4), CodecError);
}

TEST(Checksum, Rfc1071Example) {
  // Classic worked example from RFC 1071 §3.
  std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(ones_complement_sum(data), 0xddf2);
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xddf2));
}

TEST(Checksum, VerifiesAfterEmbedding) {
  std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x1c, 0x00, 0x00,
                                 0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
                                 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00,
                                 0x00, 0x02};
  std::uint16_t sum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum);
  EXPECT_TRUE(checksum_ok(data));
  data[12] ^= 0xFF;  // corrupt a byte
  EXPECT_FALSE(checksum_ok(data));
}

TEST(Checksum, OddLengthPadsWithZero) {
  std::vector<std::uint8_t> odd{0x12, 0x34, 0x56};
  std::vector<std::uint8_t> even{0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(ones_complement_sum(odd), ones_complement_sum(even));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1'000'000), b.uniform(0, 1'000'000));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ExponentialHasRoughlyTheRequestedMean) {
  Rng rng(7);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / kSamples, 3.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // The child must not replay the parent's stream.
  Rng b(42);
  (void)b.fork();
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (child.uniform(0, 1'000'000) != b.uniform(0, 1'000'000)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Hooks, DetachesOnDestructionAndExplicitly) {
  Hooks<int> hooks;
  int seen_a = 0;
  int seen_b = 0;
  Subscription a = hooks.add([&](int) { ++seen_a; });
  {
    Subscription b = hooks.add([&](int) { ++seen_b; });
    hooks(0);
    EXPECT_EQ(seen_a, 1);
    EXPECT_EQ(seen_b, 1);
  }  // b detaches here
  hooks(1);
  EXPECT_EQ(seen_a, 2);
  EXPECT_EQ(seen_b, 1);

  EXPECT_TRUE(a.active());
  a.reset();
  EXPECT_FALSE(a.active());
  a.reset();  // idempotent
  hooks(2);
  EXPECT_EQ(seen_a, 2);
  EXPECT_FALSE(hooks);
}

TEST(Hooks, StaleSubscriptionCannotDetachALaterSubscriber) {
  Hooks<> hooks;
  int seen_old = 0;
  int seen_new = 0;
  Subscription spent = hooks.add([&] { ++seen_old; });
  spent.reset();
  Subscription replaced = hooks.add([&] { ++seen_old; });
  hooks = [&] { ++seen_new; };  // replaces every subscriber
  hooks();
  EXPECT_EQ(seen_old, 0);
  EXPECT_EQ(seen_new, 1);
  // `replaced` is stale now: its id is gone and never handed out again.
  Subscription later = hooks.add([&] { ++seen_new; });
  spent.reset();
  replaced.reset();
  hooks();
  EXPECT_EQ(seen_old, 0);
  EXPECT_EQ(seen_new, 3);
}

TEST(Hooks, MoveTransfersTheSubscription) {
  Hooks<> hooks;
  int seen = 0;
  Subscription a = hooks.add([&] { ++seen; });
  Subscription b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_TRUE(b.active());
  hooks();
  EXPECT_EQ(seen, 1);
  b = Subscription();  // assignment detaches the old subscriber
  hooks();
  EXPECT_EQ(seen, 1);
}

TEST(Hooks, HandChainingThroughAMovedCopyReachesTheOldSubscribers) {
  // The std::function idiom perfbench/world.cpp uses: move the hook into
  // a lambda, assign the lambda over it, call the captured copy.
  Hooks<int> hooks;
  std::vector<std::string> calls;
  Subscription first = hooks.add(
      [&calls](int v) { calls.push_back("first " + std::to_string(v)); });
  Hooks<int> moved = std::move(hooks);
  EXPECT_FALSE(hooks);  // NOLINT(bugprone-use-after-move): documented
  ASSERT_TRUE(moved);
  hooks = std::move(moved);

  hooks = [&calls, previous = std::move(hooks)](int v) {
    calls.push_back("chained " + std::to_string(v));
    if (previous) previous(v);
  };
  EXPECT_EQ(hooks.size(), 1u);  // assignment replaced every subscriber
  const Hooks<int> copy = hooks;
  hooks(7);
  copy(8);
  EXPECT_EQ(calls, (std::vector<std::string>{"chained 7", "first 7",
                                             "chained 8", "first 8"}));
}

}  // namespace
}  // namespace mhrp::util
