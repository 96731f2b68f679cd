#include "aead/ghash.hpp"

#include <cstring>
#include <stdexcept>

#include "common/kill_switch.hpp"

namespace ecqv::aead {

bool ghash_hw_available() {
#if defined(ECQV_GHASH_CLMUL)
  static const bool ok =
      __builtin_cpu_supports("pclmul") != 0 && __builtin_cpu_supports("ssse3") != 0;
  return ok && !kill_switch_thrown("ECQV_DISABLE_CLMUL");
#else
  return false;
#endif
}

namespace detail {

void gf128_mul(std::uint8_t x[16], const std::uint8_t h[16]) {
  // Mask-based shift-and-xor: every iteration does the same work whatever
  // the bit values are, so the multiply leaks nothing about X or H.
  std::uint64_t vh = load_be64(ByteView(h, 8));
  std::uint64_t vl = load_be64(ByteView(h + 8, 8));
  std::uint64_t zh = 0, zl = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint8_t byte = x[i];
    for (int bit = 7; bit >= 0; --bit) {
      const std::uint64_t mask = 0 - static_cast<std::uint64_t>((byte >> bit) & 1u);
      zh ^= vh & mask;
      zl ^= vl & mask;
      const std::uint64_t carry = 0 - (vl & 1u);
      vl = (vl >> 1) | (vh << 63);
      vh = (vh >> 1) ^ (carry & 0xE100000000000000ULL);
    }
  }
  store_be64(ByteSpan(x, 8), zh);
  store_be64(ByteSpan(x + 8, 8), zl);
}

}  // namespace detail

Ghash::Ghash(ByteView h) {
  if (h.size() != 16) throw std::invalid_argument("Ghash: subkey must be 16 bytes");
  std::memcpy(h_.data(), h.data(), 16);
}

void Ghash::absorb_blocks(const std::uint8_t* blocks, std::size_t nblocks) {
  if (nblocks == 0) return;
#if defined(ECQV_GHASH_CLMUL)
  if (ghash_hw_available()) {
    detail::ghash_clmul_blocks(h_.data(), y_.data(), blocks, nblocks);
    return;
  }
#endif
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (std::size_t i = 0; i < 16; ++i) y_[i] ^= blocks[16 * b + i];
    detail::gf128_mul(y_.data(), h_.data());
  }
}

void Ghash::absorb_padded(ByteView data) {
  const std::size_t full = data.size() / 16;
  absorb_blocks(data.data(), full);
  const std::size_t tail = data.size() - full * 16;
  if (tail != 0) {
    std::array<std::uint8_t, 16> last{};
    std::memcpy(last.data(), data.data() + full * 16, tail);
    absorb_blocks(last.data(), 1);
  }
}

void Ghash::absorb_lengths(std::uint64_t aad_bytes, std::uint64_t ct_bytes) {
  std::array<std::uint8_t, 16> block{};
  store_be64(ByteSpan(block.data(), 8), aad_bytes * 8);
  store_be64(ByteSpan(block.data() + 8, 8), ct_bytes * 8);
  absorb_blocks(block.data(), 1);
}

void Ghash::digest(ByteSpan out16) const {
  if (out16.size() != 16) throw std::invalid_argument("Ghash::digest: need 16 bytes");
  std::memcpy(out16.data(), y_.data(), 16);
}

}  // namespace ecqv::aead
