#include "hash/sha256.hpp"

#include <algorithm>

#include "common/kill_switch.hpp"
#include "common/metrics.hpp"
#include "hash/shani.hpp"

namespace ecqv::hash {

namespace {

constexpr std::array<std::uint32_t, 8> kInit = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                                0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) { return (x >> n) | (x << (32 - n)); }

/// The portable FIPS 180-4 compression of one block.
void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
  const auto& kK = detail::kRoundK;
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

bool sha_hw_available() {
#if defined(ECQV_HASH_SHANI)
  static const bool ok =
      __builtin_cpu_supports("sha") != 0 && __builtin_cpu_supports("sse4.1") != 0;
  return ok && !kill_switch_thrown("ECQV_DISABLE_SHANI");
#else
  return false;
#endif
}

void Sha256::reset() {
  state_ = kInit;
  buffered_ = 0;
  total_bytes_ = 0;
  hw_ = sha_hw_available();
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t nblocks) {
  count_op(Op::kSha256Block, nblocks);
#if defined(ECQV_HASH_SHANI)
  if (hw_) {
    detail::shani_compress(state_.data(), blocks, nblocks);
    return;
  }
#endif
  for (; nblocks != 0; --nblocks, blocks += kSha256BlockSize) compress_portable(state_, blocks);
}

void Sha256::update(ByteView data) {
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ != 0) {
    const std::size_t take = std::min(kSha256BlockSize - buffered_, data.size());
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_));
    buffered_ += take;
    off = take;
    if (buffered_ == kSha256BlockSize) {
      compress(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (const std::size_t full = (data.size() - off) / kSha256BlockSize; full != 0) {
    compress(data.data() + off, full);
    off += full * kSha256BlockSize;
  }
  if (off < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(off), data.end(), buffer_.begin());
    buffered_ = data.size() - off;
  }
}

Digest Sha256::finish() {
  // 0x80, zeros, then the 64-bit big-endian bit length ending the last
  // block: one block if the length still fits behind the 0x80, else two.
  std::size_t len = buffered_;
  buffer_[len++] = 0x80;
  const std::size_t nblocks = len <= kSha256BlockSize - 8 ? 1 : 2;
  const std::size_t end = nblocks * kSha256BlockSize;
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(len),
            buffer_.begin() + static_cast<std::ptrdiff_t>(end - 8), std::uint8_t{0});
  const std::uint64_t bit_len = total_bytes_ * 8;
  for (std::size_t i = 0; i < 8; ++i)
    buffer_[end - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(buffer_.data(), nblocks);
  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::initializer_list<ByteView> parts) {
  Sha256 h;
  for (const auto& p : parts) h.update(p);
  return h.finish();
}

}  // namespace ecqv::hash
