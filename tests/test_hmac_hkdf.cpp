// HMAC-SHA256 (RFC 4231) and HKDF (RFC 5869) known-answer tests, run on
// both SHA-256 tiers (SHA-NI and the portable body forced through the
// ECQV_DISABLE_SHANI kill switch), plus the tier-independence of the
// Op::kSha256Block accounting the device cost model prices.
#include <gtest/gtest.h>

#include <vector>

#include "common/hex.hpp"
#include "common/metrics.hpp"
#include "core/secure_channel.hpp"
#include "env_guard.hpp"
#include "hash/hkdf.hpp"
#include "hash/hmac.hpp"
#include "protocol_fixture.hpp"

namespace ecqv::hash {
namespace {

template <typename Body>
void on_both_tiers(Body body) {
  ecqv::testing::on_both_tiers("ECQV_DISABLE_SHANI", body);
}

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  on_both_tiers([&] {
    EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  });
}

TEST(Hmac, Rfc4231Case2) {
  on_both_tiers([] {
    EXPECT_EQ(to_hex(hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  });
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  on_both_tiers([&] {
    EXPECT_EQ(to_hex(hmac_sha256(key, data)),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  });
}

TEST(Hmac, Rfc4231Case4) {
  const Bytes key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const Bytes data(50, 0xcd);
  on_both_tiers([&] {
    EXPECT_EQ(to_hex(hmac_sha256(key, data)),
              "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
  });
}

TEST(Hmac, Rfc4231Case5Truncated) {
  const Bytes key(20, 0x0c);
  on_both_tiers([&] {
    const Digest mac = hmac_sha256(key, bytes_of("Test With Truncation"));
    EXPECT_EQ(to_hex(ByteView(mac.data(), 16)), "a3b6167473100ee06e0c796c2955552b");
  });
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  on_both_tiers([&] {
    EXPECT_EQ(
        to_hex(hmac_sha256(key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  });
}

TEST(Hmac, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  const Bytes data = bytes_of(
      "This is a test using a larger than block-size key and a larger than block-size data. "
      "The key needs to be hashed before being used by the HMAC algorithm.");
  on_both_tiers([&] {
    EXPECT_EQ(to_hex(hmac_sha256(key, data)),
              "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
  });
}

TEST(Hmac, StreamingMatchesOneShot) {
  const Bytes key = bytes_of("streaming-key");
  const Bytes data = bytes_of("the quick brown fox jumps over the lazy dog");
  HmacSha256 mac(key);
  for (std::uint8_t b : data) mac.update(ByteView(&b, 1));
  EXPECT_EQ(mac.finish(), hmac_sha256(key, data));
}

TEST(Hmac, ResetReusesKey) {
  HmacSha256 mac(bytes_of("k"));
  mac.update(bytes_of("first"));
  (void)mac.finish();
  mac.reset();
  mac.update(bytes_of("second"));
  EXPECT_EQ(mac.finish(), hmac_sha256(bytes_of("k"), bytes_of("second")));
}

TEST(Hmac, DifferentKeysDiffer) {
  const Bytes data = bytes_of("payload");
  EXPECT_NE(hmac_sha256(bytes_of("k1"), data), hmac_sha256(bytes_of("k2"), data));
}

/// What the accounting test compares across tiers: the SHA-256 blocks one
/// full STS handshake plus 100 v2 records cost, and the records themselves.
struct StsTranscript {
  std::uint64_t sha256_blocks = 0;
  std::vector<Bytes> records;
};

StsTranscript sts_then_records() {
  ecqv::testing::World world;
  CountScope scope;
  const ecqv::testing::RunOutcome outcome = ecqv::testing::run(proto::ProtocolKind::kSts, world);
  EXPECT_TRUE(outcome.result.success);
  proto::SecureChannel sender(outcome.initiator_keys, proto::Role::kInitiator);
  proto::SecureChannel receiver(outcome.responder_keys, proto::Role::kResponder);
  StsTranscript transcript;
  for (std::size_t i = 0; i < 100; ++i) {
    const Bytes plaintext(64, static_cast<std::uint8_t>(i));
    Bytes record = sender.seal(plaintext);
    const Result<Bytes> opened = receiver.open(record);
    EXPECT_TRUE(opened.ok() && opened.value() == plaintext) << "record " << i;
    transcript.records.push_back(std::move(record));
  }
  transcript.sha256_blocks = scope.counts()[Op::kSha256Block];
  return transcript;
}

TEST(Sha256Accounting, StsHandshakePlusRecordsCountsSameBlocksOnBothTiers) {
  const StsTranscript hw = sts_then_records();
  ecqv::testing::EnvGuard off("ECQV_DISABLE_SHANI", "1");
  const StsTranscript portable = sts_then_records();
  // The cost model prices hashing per block: the tier must not move it.
  EXPECT_EQ(hw.sha256_blocks, portable.sha256_blocks);
  // 100 v2 records at 5 blocks per seal and 5 per open, on top of the
  // handshake's own hashing.
  EXPECT_GT(hw.sha256_blocks, 100u * 10u);
  EXPECT_EQ(hw.records, portable.records);
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, ExpandLengthBound) {
  const Digest prk = hkdf_extract(bytes_of("salt"), bytes_of("ikm"));
  EXPECT_NO_THROW(hkdf_expand(prk, {}, 255 * 32));
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(Hkdf, OutputIsPrefixConsistent) {
  // HKDF output truncation: first N bytes of a longer expansion equal the
  // shorter expansion (RFC 5869 property).
  const Digest prk = hkdf_extract(bytes_of("s"), bytes_of("k"));
  const Bytes long_okm = hkdf_expand(prk, bytes_of("ctx"), 96);
  const Bytes short_okm = hkdf_expand(prk, bytes_of("ctx"), 17);
  EXPECT_TRUE(std::equal(short_okm.begin(), short_okm.end(), long_okm.begin()));
}

TEST(Hkdf, InfoSeparatesOutputs) {
  const Digest prk = hkdf_extract(bytes_of("s"), bytes_of("k"));
  EXPECT_NE(hkdf_expand(prk, bytes_of("a"), 32), hkdf_expand(prk, bytes_of("b"), 32));
}

}  // namespace
}  // namespace ecqv::hash
