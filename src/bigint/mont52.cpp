// Radix-2^52 lane: context construction, the portable 8-wide fallback, and
// runtime dispatch to the AVX-512 IFMA kernel (mont8_avx512.cpp).
#include "bigint/mont52.hpp"

#include <stdexcept>

#include "common/kill_switch.hpp"

namespace ecqv::bi {

namespace {

using u128 = unsigned __int128;

// -m^-1 mod 2^52 via the 2^64 word inverse (m odd).
std::uint64_t neg_inv52(std::uint64_t m0) {
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;  // m0^-1 mod 2^64
  return (~inv + 1) & kFe52Mask;
}

}  // namespace

void u256_to_fe52(std::uint64_t out[kFe52Limbs], const U256& a) {
  out[0] = a.w[0] & kFe52Mask;
  out[1] = ((a.w[0] >> 52) | (a.w[1] << 12)) & kFe52Mask;
  out[2] = ((a.w[1] >> 40) | (a.w[2] << 24)) & kFe52Mask;
  out[3] = ((a.w[2] >> 28) | (a.w[3] << 36)) & kFe52Mask;
  out[4] = a.w[3] >> 16;
}

U256 fe52_to_u256(const std::uint64_t in[kFe52Limbs]) {
  U256 r;
  r.w[0] = in[0] | (in[1] << 52);
  r.w[1] = (in[1] >> 12) | (in[2] << 40);
  r.w[2] = (in[2] >> 24) | (in[3] << 28);
  r.w[3] = (in[3] >> 36) | (in[4] << 16);
  return r;
}

Mont52Ctx::Mont52Ctx(const U256& mod) : modulus(mod) {
  if (!mod.is_odd()) throw std::invalid_argument("Mont52Ctx: modulus must be odd");
  if (mod.bit(255) == 0) throw std::invalid_argument("Mont52Ctx: modulus must exceed 2^255");
  u256_to_fe52(m, mod);
  n0 = neg_inv52(m[0]);
  // 2^256 mod m and 2^264 mod m by repeated modular doubling of 1 (same
  // shift-and-reduce loop the scalar MontCtx uses for R and R^2).
  U256 acc(1);
  U256 r256{};
  for (int i = 0; i < 264; ++i) {
    const std::uint64_t top = acc.bit(255);
    acc = shl1(acc);
    if (top != 0) {
      U256 t;
      bi::sub(t, acc, mod);
      acc = t;
    }
    if (cmp(acc, mod) >= 0) {
      U256 t;
      bi::sub(t, acc, mod);
      acc = t;
    }
    if (i == 255) r256 = acc;
  }
  u256_to_fe52(from_lane, r256);
  u256_to_fe52(to_lane, acc);
}

bool mont8_hw_available() {
#if defined(ECQV_MONT8_IFMA)
  static const bool ok = __builtin_cpu_supports("avx512f") != 0 &&
                         __builtin_cpu_supports("avx512ifma") != 0;
  return ok && !kill_switch_thrown("ECQV_DISABLE_IFMA");
#else
  return false;
#endif
}

// The exact algorithm the IFMA kernel runs, one lane at a time on
// unsigned __int128: five interleaved-CIOS rounds where every partial
// product contributes its low 52 bits to column j and its high 52 bits to
// column j+1 (the vpmadd52 split), deferred carries, then one carry sweep
// and a conditional subtract. Bit-identical to the vector kernel.
void detail::mont8_mul_portable(Fe52x8& out, const Fe52x8& a, const Fe52x8& b,
                                const Mont52Ctx& ctx) {
  for (int lane = 0; lane < 8; ++lane) {
    std::uint64_t t[kFe52Limbs + 1] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < kFe52Limbs; ++i) {
      const std::uint64_t ai = a.l[i][lane];
      for (int j = 0; j < kFe52Limbs; ++j) {
        const u128 p = static_cast<u128>(ai) * b.l[j][lane];
        t[j] += static_cast<std::uint64_t>(p) & kFe52Mask;
        t[j + 1] += static_cast<std::uint64_t>(p >> 52);
      }
      const std::uint64_t mf = ((t[0] & kFe52Mask) * ctx.n0) & kFe52Mask;
      for (int j = 0; j < kFe52Limbs; ++j) {
        const u128 p = static_cast<u128>(mf) * ctx.m[j];
        t[j] += static_cast<std::uint64_t>(p) & kFe52Mask;
        t[j + 1] += static_cast<std::uint64_t>(p >> 52);
      }
      t[1] += t[0] >> 52;  // t[0] ≡ 0 mod 2^52 by construction of mf
      for (int j = 0; j < kFe52Limbs; ++j) t[j] = t[j + 1];
      t[kFe52Limbs] = 0;
    }
    // Carry sweep: the result is < 2m < 2^257, so it fits five limbs.
    for (int j = 0; j + 1 < kFe52Limbs; ++j) {
      t[j + 1] += t[j] >> 52;
      t[j] &= kFe52Mask;
    }
    // Conditional subtract of m (branchless select per lane).
    std::uint64_t d[kFe52Limbs];
    std::uint64_t borrow = 0;
    for (int j = 0; j < kFe52Limbs; ++j) {
      const std::uint64_t v = t[j] - ctx.m[j] - borrow;
      borrow = v >> 63;
      d[j] = v & kFe52Mask;
    }
    const std::uint64_t keep_t = static_cast<std::uint64_t>(0) - borrow;  // all-ones iff t < m
    for (int j = 0; j < kFe52Limbs; ++j)
      out.l[j][lane] = (t[j] & keep_t) | (d[j] & ~keep_t);
  }
}

void mont8_mul(Fe52x8& out, const Fe52x8& a, const Fe52x8& b, const Mont52Ctx& ctx) {
#if defined(ECQV_MONT8_IFMA)
  if (mont8_hw_available()) {
    detail::mont8_mul_ifma(out, a, b, ctx);
    return;
  }
#endif
  detail::mont8_mul_portable(out, a, b, ctx);
}

void mont8_sqr(Fe52x8& out, const Fe52x8& a, const Mont52Ctx& ctx) { mont8_mul(out, a, a, ctx); }

Fe52x8 fe52x8_broadcast(const std::uint64_t v[kFe52Limbs]) {
  Fe52x8 r;
  for (int j = 0; j < kFe52Limbs; ++j)
    for (int lane = 0; lane < 8; ++lane) r.l[j][lane] = v[j];
  return r;
}

void mont8_load(Fe52x8& out, const U256 in[8], const Mont52Ctx& ctx) {
  Fe52x8 packed;
  std::uint64_t limbs[kFe52Limbs];
  for (int lane = 0; lane < 8; ++lane) {
    u256_to_fe52(limbs, in[lane]);
    for (int j = 0; j < kFe52Limbs; ++j) packed.l[j][lane] = limbs[j];
  }
  const Fe52x8 c = fe52x8_broadcast(ctx.to_lane);
  mont8_mul(out, packed, c, ctx);
}

void mont8_store(U256 out[8], const Fe52x8& in, const Mont52Ctx& ctx) {
  Fe52x8 rebased;
  const Fe52x8 c = fe52x8_broadcast(ctx.from_lane);
  mont8_mul(rebased, in, c, ctx);
  std::uint64_t limbs[kFe52Limbs];
  for (int lane = 0; lane < 8; ++lane) {
    for (int j = 0; j < kFe52Limbs; ++j) limbs[j] = rebased.l[j][lane];
    out[lane] = fe52_to_u256(limbs);
  }
}

}  // namespace ecqv::bi
