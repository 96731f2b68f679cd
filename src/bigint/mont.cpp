#include "bigint/mont.hpp"

#include <stdexcept>

#include "common/kill_switch.hpp"

namespace ecqv::bi {

using u128 = unsigned __int128;

namespace {

// -m^-1 mod 2^64 by Newton iteration on the word inverse.
std::uint64_t neg_inv64(std::uint64_t m0) {
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;  // inv = m0^-1 mod 2^64
  return ~inv + 1;                                  // -inv
}

// Generic Montgomery reduction of a 512-bit product: four CIOS-style
// m-steps with 64x64 multiplies, then a branchless conditional subtract.
U256 redc_generic(const p256::Wide& w, const U256& m, std::uint64_t n0) {
  std::uint64_t t0 = w.w0, t1 = w.w1, t2 = w.w2, t3 = w.w3;
  std::uint64_t g = 0;
  const std::uint64_t inj[4] = {w.w4, w.w5, w.w6, w.w7};
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t mfac = t0 * n0;
    u128 cur = static_cast<u128>(mfac) * m.w[0] + t0;  // low limb folds to 0
    std::uint64_t c = static_cast<std::uint64_t>(cur >> 64);
    cur = static_cast<u128>(mfac) * m.w[1] + t1 + c;
    t0 = static_cast<std::uint64_t>(cur);
    c = static_cast<std::uint64_t>(cur >> 64);
    cur = static_cast<u128>(mfac) * m.w[2] + t2 + c;
    t1 = static_cast<std::uint64_t>(cur);
    c = static_cast<std::uint64_t>(cur >> 64);
    cur = static_cast<u128>(mfac) * m.w[3] + t3 + c;
    t2 = static_cast<std::uint64_t>(cur);
    c = static_cast<std::uint64_t>(cur >> 64);
    cur = static_cast<u128>(inj[i]) + c + g;
    t3 = static_cast<std::uint64_t>(cur);
    g = static_cast<std::uint64_t>(cur >> 64);
  }
  U256 r{t0, t1, t2, t3};
  U256 d;
  const std::uint64_t borrow = bi::sub(d, r, m);
  return ct_select(g | (borrow ^ 1), d, r);
}

// (x + m) >> 1 over 257 bits (helper for the binary extended gcd).
U256 add_shr1(const U256& x, const U256& m) {
  U256 t;
  const std::uint64_t carry = bi::add(t, x, m);
  U256 r = shr1(t);
  r.w[3] |= carry << 63;
  return r;
}

}  // namespace

bool mont_asm_available() {
#if defined(ECQV_P256_ASM)
  if (kill_switch_thrown("ECQV_DISABLE_ASM")) return false;
  return __builtin_cpu_supports("bmi2") != 0 && __builtin_cpu_supports("adx") != 0;
#else
  return false;
#endif
}

namespace p256 {
U256 mont_mul(const U256& a, const U256& b) { return redc(mul4_wide(a, b)); }
U256 mont_sqr(const U256& a) { return redc(sqr4_wide(a)); }
}  // namespace p256

MontCtx::MontCtx(const U256& modulus) : m_(modulus) {
  if (!modulus.is_odd()) throw std::invalid_argument("MontCtx: modulus must be odd");
  if (modulus.bit(255) == 0) throw std::invalid_argument("MontCtx: modulus must exceed 2^255");
  n0_ = neg_inv64(modulus.w[0]);
  is_p256_prime_ = (modulus == p256::kPrime);
#if defined(ECQV_P256_ASM)
  const bool asm_ok = mont_asm_available();
  use_asm_ = is_p256_prime_ && asm_ok;
  use_asm_any_ = !is_p256_prime_ && asm_ok;
#endif

  // R mod m and R^2 mod m by repeated modular doubling of 1: double 512
  // times for R^2 and capture R after 256 doublings.
  U256 acc(1);
  for (int i = 0; i < 512; ++i) {
    const std::uint64_t top = acc.bit(255);
    acc = shl1(acc);
    // acc may have dropped a top bit; value is acc + top*2^256. Reduce:
    // subtract m when the dropped bit is set (2^256 mod m = 2^256 - m since
    // m > 2^255 implies 2^256 < 2m) or when acc >= m.
    if (top != 0) {
      U256 t;
      bi::sub(t, acc, m_);
      acc = t;
    }
    if (cmp(acc, m_) >= 0) {
      U256 t;
      bi::sub(t, acc, m_);
      acc = t;
    }
    if (i == 255) one_ = acc;
  }
  r2_ = acc;
}

U256 MontCtx::mul_generic(const U256& a, const U256& b) const {
  return redc_generic(p256::mul4_wide(a, b), m_, n0_);
}

U256 MontCtx::sqr_generic(const U256& a) const {
  return redc_generic(p256::sqr4_wide(a), m_, n0_);
}

U256 MontCtx::pow(const U256& a_mont, const U256& e) const {
  U256 result = one_;
  for (int i = 255; i >= 0; --i) {
    result = sqr(result);
    if (e.bit(static_cast<unsigned>(i)) != 0) result = mul(result, a_mont);
  }
  return result;
}

// Fixed addition chain for a^(p-2) mod p, p the secp256r1 field prime.
//
// p - 2 reads, in 32-bit words high to low,
//   ffffffff 00000001 00000000 00000000 00000000 ffffffff ffffffff fffffffd
// The chain first builds a^(2^k - 1) for k = 2,4,8,16,32 by doubling runs,
// then assembles the exponent word by word: 255 squarings + 13 multiplies,
// vs 256 squarings + ~128 multiplies for the generic ladder. The operation
// sequence is fixed — independent of the input value.
U256 MontCtx::inv_p256_chain(const U256& a_mont) const {
  auto sqr_n = [this](U256 v, int n) {
    for (int i = 0; i < n; ++i) v = sqr(v);
    return v;
  };
  const U256 x2 = mul(sqr(a_mont), a_mont);   // 2^2 - 1
  const U256 x4 = mul(sqr_n(x2, 2), x2);      // 2^4 - 1
  const U256 x8 = mul(sqr_n(x4, 4), x4);      // 2^8 - 1
  const U256 x16 = mul(sqr_n(x8, 8), x8);     // 2^16 - 1
  const U256 x32 = mul(sqr_n(x16, 16), x16);  // 2^32 - 1

  U256 acc = x32;                        // ffffffff
  acc = mul(sqr_n(acc, 32), a_mont);     // .. 00000001
  acc = mul(sqr_n(acc, 128), x32);       // .. 00000000 00000000 00000000 ffffffff
  acc = mul(sqr_n(acc, 32), x32);        // .. ffffffff
  acc = mul(sqr_n(acc, 16), x16);        // low word: 16 ones
  acc = mul(sqr_n(acc, 8), x8);          //   + 8 ones
  acc = mul(sqr_n(acc, 4), x4);          //   + 4 ones
  acc = mul(sqr_n(acc, 2), x2);          //   + 2 ones  (30 ones total)
  acc = mul(sqr_n(acc, 2), a_mont);      //   + "01" -> fffffffd
  return acc;
}

U256 MontCtx::inv(const U256& a_mont) const {
  if (is_p256_prime_) return inv_p256_chain(a_mont);
  U256 e;
  bi::sub(e, m_, U256(2));  // m - 2
  return pow(a_mont, e);
}

// Binary extended gcd (HAC 14.61 simplified for odd prime modulus).
// Variable-time in the value of a — public inputs only.
U256 MontCtx::inv_vartime(const U256& a_mont) const {
  const U256 a = from_mont(a_mont);
  if (a.is_zero()) return U256(0);  // defensive; precondition is nonzero
  U256 u = a;
  U256 v = m_;
  U256 x1(1);
  U256 x2(0);
  const U256 one(1);
  while (!(u == one) && !(v == one)) {
    while (!u.is_odd()) {
      u = shr1(u);
      x1 = x1.is_odd() ? add_shr1(x1, m_) : shr1(x1);
    }
    while (!v.is_odd()) {
      v = shr1(v);
      x2 = x2.is_odd() ? add_shr1(x2, m_) : shr1(x2);
    }
    if (cmp(u, v) >= 0) {
      U256 t;
      bi::sub(t, u, v);
      u = t;
      x1 = sub(x1, x2);
    } else {
      U256 t;
      bi::sub(t, v, u);
      v = t;
      x2 = sub(x2, x1);
    }
  }
  return to_mont(u == one ? x1 : x2);
}

}  // namespace ecqv::bi
