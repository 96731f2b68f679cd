#include "hash/hmac.hpp"

#include "common/metrics.hpp"

namespace ecqv::hash {

HmacSha256::HmacSha256(ByteView key) {
  std::array<std::uint8_t, kSha256BlockSize> k{};
  if (key.size() > kSha256BlockSize) {
    const Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  for (std::size_t i = 0; i < kSha256BlockSize; ++i) {
    ipad_[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad_[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(ipad_);  // inner_ was reset by its own constructor
}

void HmacSha256::reset() {
  inner_.reset();
  inner_.update(ipad_);
}

void HmacSha256::update(ByteView data) { inner_.update(data); }

Digest HmacSha256::finish() {
  count_op(Op::kHmac);
  const Digest inner_digest = inner_.finish();
  Sha256 outer;
  outer.update(opad_);
  outer.update(inner_digest);
  return outer.finish();
}

Digest hmac_sha256(ByteView key, ByteView data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

Digest hmac_sha256(ByteView key, std::initializer_list<ByteView> parts) {
  HmacSha256 mac(key);
  for (const auto& p : parts) mac.update(p);
  return mac.finish();
}

}  // namespace ecqv::hash
