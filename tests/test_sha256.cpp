// SHA-256 known-answer (FIPS 180-4 examples), streaming-equivalence and
// block-accounting tests, plus the SHA-NI-vs-portable differential pins.
//
// Every known-answer test runs on both tiers of the dispatch ladder: the
// hardware kernel (when the CPU and build have it) and the portable body,
// forced in-process through the ECQV_DISABLE_SHANI kill switch, which
// Sha256 re-reads at every reset().
#include <gtest/gtest.h>

#include <utility>

#include "common/hex.hpp"
#include "common/metrics.hpp"
#include "env_guard.hpp"
#include "hash/sha256.hpp"

namespace ecqv::hash {
namespace {

using ecqv::testing::EnvGuard;

std::string digest_hex(ByteView data) { return to_hex(sha256(data)); }

template <typename Body>
void on_both_tiers(Body body) {
  ecqv::testing::on_both_tiers("ECQV_DISABLE_SHANI", body);
}

Bytes pattern(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8));
  return data;
}

Digest portable_sha256(ByteView data) {
  EnvGuard off("ECQV_DISABLE_SHANI", "1");
  Sha256 h;
  EXPECT_FALSE(h.hardware());
  h.update(data);
  return h.finish();
}

TEST(Sha256, NistShortVectors) {
  on_both_tiers([] {
    EXPECT_EQ(digest_hex(bytes_of("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digest_hex(bytes_of("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(digest_hex(bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(digest_hex(bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  });
}

TEST(Sha256, MillionAs) {
  const Bytes data(1000000, 'a');
  on_both_tiers([&] {
    EXPECT_EQ(digest_hex(data),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  });
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edges, where finish() switches
  // between one and two padding blocks. Digests of len × 0x5a from an
  // independent implementation (Python hashlib).
  const std::pair<std::size_t, const char*> kCases[] = {
      {54, "bbc9cf58477cda4f72a4d20d1ae6a95241ac924c3f310b86c4c8fb903e89d1ff"},
      {55, "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44"},
      {56, "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a"},
      {57, "30ab35131f9b368e840dc65fc1eb832706e748e3c5e44ec40bc19cd1ce5c0dc2"},
      {63, "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333"},
      {64, "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282"},
      {65, "b8de0db62b6c87db61345504a8038bf973d987e8d2111abd8beb407c0bf3d9db"},
      {119, "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e"},
      {120, "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee"},
      {127, "f4651f880655488aadc1ea0287ef8954296d9e7487a642bd4800744e15ee3771"},
      {128, "349d65e9ba1de7b0a13f9a3eadcc5b0202f15d6008fe9477f2a7b80f6194b20f"},
  };
  on_both_tiers([&] {
    for (const auto& [len, expected] : kCases) {
      const Bytes data(len, 0x5a);
      Sha256 h;
      h.update(data);
      EXPECT_EQ(to_hex(h.finish()), expected) << "len=" << len;
    }
  });
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1024; ++i) data.push_back(static_cast<std::uint8_t>(i * 31));
  const Digest oneshot = sha256(data);
  for (const std::size_t chunk : {1u, 3u, 17u, 64u, 100u, 1024u}) {
    Sha256 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      const std::size_t take = std::min(chunk, data.size() - off);
      h.update(ByteView(data.data() + off, take));
    }
    EXPECT_EQ(h.finish(), oneshot) << "chunk=" << chunk;
  }
}

TEST(Sha256, ResetRestartsState) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, MultiPartOverloadConcatenates) {
  const Bytes a = bytes_of("ab");
  const Bytes b = bytes_of("c");
  EXPECT_EQ(sha256({ByteView(a), ByteView(b)}), sha256(bytes_of("abc")));
}

TEST(Sha256, CountsCompressionBlocks) {
  on_both_tiers([] {
    CountScope scope;
    (void)sha256(Bytes(64, 0));  // 64 bytes + padding = 2 blocks
    EXPECT_EQ(scope.counts()[Op::kSha256Block], 2u);
  });
}

TEST(Sha256, MultiBlockUpdateCountsEveryBlock) {
  // One update() hands 15 full blocks to the kernel in a single call; the
  // 40-byte tail plus padding fits one more block.
  on_both_tiers([] {
    CountScope scope;
    Sha256 h;
    h.update(pattern(15 * 64 + 40));
    (void)h.finish();
    EXPECT_EQ(scope.counts()[Op::kSha256Block], 16u);
  });
}

TEST(Sha256, KillSwitchSelectsPortable) {
  EXPECT_EQ(Sha256().hardware(), sha_hw_available());
  Sha256 reused;
  {
    EnvGuard off("ECQV_DISABLE_SHANI", "1");
    EXPECT_FALSE(sha_hw_available());
    EXPECT_FALSE(Sha256().hardware());
    reused.reset();  // the switch is read at every reset()
    EXPECT_FALSE(reused.hardware());
  }
  {
    // "0" and the empty string leave the hardware tier on, like the other
    // ECQV_DISABLE_* switches.
    EnvGuard zero("ECQV_DISABLE_SHANI", "0");
    const bool with_zero = sha_hw_available();
    EnvGuard empty("ECQV_DISABLE_SHANI", "");
    EXPECT_EQ(sha_hw_available(), with_zero);
  }
#if defined(ECQV_NO_SHANI)
  EXPECT_FALSE(sha_hw_available()) << "compile gate left the kernel in";
#endif
}

TEST(Sha256, HardwareMatchesPortableEveryLength) {
  if (!sha_hw_available()) GTEST_SKIP() << "no SHA-NI tier on this build/CPU";
  const Bytes data = pattern(1024);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteView view(data.data(), len);
    ASSERT_EQ(sha256(view), portable_sha256(view)) << "len=" << len;
  }
}

TEST(Sha256, HardwareMatchesPortableEverySplit) {
  if (!sha_hw_available()) GTEST_SKIP() << "no SHA-NI tier on this build/CPU";
  const Bytes data = pattern(200);
  const Digest reference = portable_sha256(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const ByteView head(data.data(), split);
    const ByteView tail(data.data() + split, data.size() - split);
    Sha256 hw;
    ASSERT_TRUE(hw.hardware());
    hw.update(head);
    hw.update(tail);
    ASSERT_EQ(hw.finish(), reference) << "split=" << split;
    EnvGuard off("ECQV_DISABLE_SHANI", "1");
    Sha256 portable;
    ASSERT_FALSE(portable.hardware());
    portable.update(head);
    portable.update(tail);
    ASSERT_EQ(portable.finish(), reference) << "portable split=" << split;
  }
}

}  // namespace
}  // namespace ecqv::hash
