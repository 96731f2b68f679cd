// SHA-NI kernel for every SHA-256 user (record MACs, ratchet MACs, HKDF,
// the RFC 6979 DRBG, certificate and ECDSA digests).
//
// This translation unit is the only one that emits SHA instructions; the
// function-level target attribute keeps the rest of the build portable,
// exactly like aes/aesni.cpp does for AES-NI. Callers reach this only after
// sha_hw_available() (CPU probe + ECQV_DISABLE_SHANI kill switch) said yes.
//
// sha256rnds2 runs two rounds on the state split as ABEF/CDGH, taking the
// two W+K words from the low half of its third operand; sha256msg1/msg2
// compute the message schedule four words at a time. A 64-byte block is
// sixteen four-round quads: quads 0–3 consume the byte-swapped input, and
// quad i (3 ≤ i ≤ 14) finishes the schedule words of quad i+1 while quad i
// (1 ≤ i ≤ 12) starts the words of quad i+3.
#include "hash/shani.hpp"

#if defined(ECQV_HASH_SHANI)

#include <immintrin.h>

namespace ecqv::hash::detail {

__attribute__((target("sha,sse4.1"))) void shani_compress(std::uint32_t state[8],
                                                          const std::uint8_t* blocks,
                                                          std::size_t nblocks) {
  // Big-endian word loads: byte-reverse each 32-bit lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // a..h → ABEF / CDGH.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));        // DCBA
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));   // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                             // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                           // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                   // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                        // CDGH

  for (; nblocks != 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int quad = 0; quad < 16; ++quad) {
      __m128i& cur = w[quad & 3];
      if (quad < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * quad)), bswap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_load_si128(reinterpret_cast<const __m128i*>(kRoundK.data() + 4 * quad)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (quad >= 3 && quad <= 14) {
        __m128i& next = w[(quad + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(quad + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (quad >= 1 && quad <= 12) {
        __m128i& prev = w[(quad + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF / CDGH → a..h.
  tmp = _mm_shuffle_epi32(abef, 0x1B);                                            // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);                                           // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(cdgh, tmp, 8));
}

}  // namespace ecqv::hash::detail

#endif  // ECQV_HASH_SHANI
