// Native (this-machine) microbenchmarks of every cryptographic primitive —
// the source of the relative weights in sim/device.cpp and the "what does
// this library really cost" numbers in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "aes/cmac.hpp"
#include "aes/modes.hpp"
#include "bigint/mont52.hpp"
#include "ec/curve.hpp"
#include "ec/encoding.hpp"
#include "ec/fixed_base.hpp"
#include "ecdsa/ecdsa.hpp"
#include "ecqv/ca.hpp"
#include "hash/hkdf.hpp"
#include "kdf/session_keys.hpp"
#include "report.hpp"
#include "rng/test_rng.hpp"

namespace {

using namespace ecqv;

const ec::Curve& curve() { return ec::Curve::p256(); }

struct EcFixtureData {
  bi::U256 k;
  ec::AffinePoint p;
  EcFixtureData() {
    rng::TestRng rng(1);
    k = curve().random_scalar(rng);
    p = curve().mul_base(curve().random_scalar(rng));
  }
};
const EcFixtureData& ec_fixture() {
  static const EcFixtureData data;
  return data;
}

void BM_EcMulLadderBase(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(curve().mul_base(ec_fixture().k));
}
BENCHMARK(BM_EcMulLadderBase);

void BM_EcMulLadderVar(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(curve().mul(ec_fixture().k, ec_fixture().p));
}
BENCHMARK(BM_EcMulLadderVar);

void BM_EcMulWnafVartime(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(curve().mul_vartime(ec_fixture().k, ec_fixture().p));
}
BENCHMARK(BM_EcMulWnafVartime);

void BM_EcDualMulStraus(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(curve().dual_mul(ec_fixture().k, ec_fixture().k, ec_fixture().p));
}
BENCHMARK(BM_EcDualMulStraus);

void BM_EcMulFixedBaseComb(benchmark::State& state) {
  const ec::FixedBaseTable& table = ec::FixedBaseTable::p256();
  for (auto _ : state) benchmark::DoNotOptimize(table.mul(ec_fixture().k));
}
BENCHMARK(BM_EcMulFixedBaseComb);

void BM_EcPointAdd(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(curve().add(ec_fixture().p, curve().generator()));
}
BENCHMARK(BM_EcPointAdd);

// --- throughput-engine kernels -------------------------------------------
// The dispatch ladder under every verify: AVX-512 IFMA 8-way lane -> BMI2/
// ADX scalar asm -> portable C. Each tier benched against the next so the
// committed BENCH_primitives.json carries the measured step-downs (the
// "cpu" context block records which tiers were actually live).

struct ModNFixture {
  bi::MontCtx dispatched;  // ADX kernel when the CPU has BMI2+ADX
  bi::MontCtx portable;    // same modulus, asm force-disabled
  bi::U256 a, b;
  ModNFixture()
      : dispatched(curve().order()),
        portable([] {
          ::setenv("ECQV_DISABLE_ASM", "1", 1);
          bi::MontCtx ctx(curve().order());
          ::unsetenv("ECQV_DISABLE_ASM");
          return ctx;
        }()) {
    rng::TestRng rng(6);
    a = dispatched.to_mont(curve().random_scalar(rng));
    b = dispatched.to_mont(curve().random_scalar(rng));
  }
};
const ModNFixture& mod_n_fixture() {
  static const ModNFixture data;
  return data;
}

void BM_MontMulModN(benchmark::State& state) {
  const ModNFixture& f = mod_n_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.dispatched.mul_raw(f.a, f.b));
}
BENCHMARK(BM_MontMulModN);

void BM_MontMulModNPortable(benchmark::State& state) {
  const ModNFixture& f = mod_n_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.portable.mul_raw(f.a, f.b));
}
BENCHMARK(BM_MontMulModNPortable);

struct LaneFixture {
  bi::Mont52Ctx ctx;
  bi::Fe52x8 a, b;
  LaneFixture() : ctx(bi::p256::kPrime) {
    rng::TestRng rng(7);
    bi::U256 in[8];
    for (auto& v : in) v = curve().fp().to_mont(curve().random_scalar(rng));
    bi::mont8_load(a, in, ctx);
    for (auto& v : in) v = curve().fp().to_mont(curve().random_scalar(rng));
    bi::mont8_load(b, in, ctx);
  }
};
const LaneFixture& lane_fixture() {
  static const LaneFixture data;
  return data;
}

// One vector call is eight logical field multiplications; items/s is the
// logical-op throughput to compare against the scalar rows above.
void BM_Mont8FieldMul(benchmark::State& state) {
  const LaneFixture& f = lane_fixture();
  bi::Fe52x8 out;
  for (auto _ : state) {
    bi::mont8_mul(out, f.a, f.b, f.ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Mont8FieldMul);

void BM_Mont8FieldMulPortable(benchmark::State& state) {
  const LaneFixture& f = lane_fixture();
  bi::Fe52x8 out;
  for (auto _ : state) {
    bi::detail::mont8_mul_portable(out, f.a, f.b, f.ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Mont8FieldMulPortable);

void BM_FieldInversion(benchmark::State& state) {
  const bi::U256 v = curve().fp().to_mont(ec_fixture().k);
  for (auto _ : state) benchmark::DoNotOptimize(curve().fp().inv(v));
}
BENCHMARK(BM_FieldInversion);

void BM_PointDecodeCompressed(benchmark::State& state) {
  const Bytes enc = ec::encode_compressed(ec_fixture().p);
  for (auto _ : state) benchmark::DoNotOptimize(ec::decode_point(curve(), enc));
}
BENCHMARK(BM_PointDecodeCompressed);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(hash::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(4096);

// The *Portable rows run the same loop with the SHA-NI tier switched off
// (Sha256 re-reads ECQV_DISABLE_SHANI at every reset()), so each SHA row has
// a same-binary tier pair. 78 B is the v2 record-MAC input: epoch, flags,
// seq, direction and a 64 B ciphertext.
void BM_Sha256Portable(benchmark::State& state) {
  ::setenv("ECQV_DISABLE_SHANI", "1", 1);
  BM_Sha256(state);
  ::unsetenv("ECQV_DISABLE_SHANI");
}
BENCHMARK(BM_Sha256Portable)->Arg(64);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x0b);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) benchmark::DoNotOptimize(hash::hmac_sha256(key, data));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(78)->Arg(256);

void BM_HmacSha256Portable(benchmark::State& state) {
  ::setenv("ECQV_DISABLE_SHANI", "1", 1);
  BM_HmacSha256(state);
  ::unsetenv("ECQV_DISABLE_SHANI");
}
BENCHMARK(BM_HmacSha256Portable)->Arg(78);

void BM_HkdfSessionKeys(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(kdf::derive_session_keys(bytes_of("premaster"), bytes_of("salt"),
                                                      bytes_of("bench")));
}
BENCHMARK(BM_HkdfSessionKeys);

void BM_AesCtr(benchmark::State& state) {
  const aes::Aes128 cipher(Bytes(16, 0x11));
  aes::Iv iv{};
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x22);
  for (auto _ : state) benchmark::DoNotOptimize(aes::ctr_crypt(cipher, iv, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(64)->Arg(1024);

void BM_AesCmac(benchmark::State& state) {
  const Bytes key(16, 0x2b);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x6b);
  for (auto _ : state) benchmark::DoNotOptimize(aes::cmac(key, data));
}
BENCHMARK(BM_AesCmac)->Arg(16)->Arg(64);

void BM_EcdsaSign(benchmark::State& state) {
  rng::TestRng rng(2);
  const sig::PrivateKey key = sig::PrivateKey::generate(rng);
  const Bytes msg = bytes_of("benchmark message");
  for (auto _ : state) benchmark::DoNotOptimize(key.sign(msg));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  rng::TestRng rng(3);
  const sig::PrivateKey key = sig::PrivateKey::generate(rng);
  const Bytes msg = bytes_of("benchmark message");
  const sig::Signature s = key.sign(msg);
  const ec::AffinePoint q = key.public_point();
  for (auto _ : state) benchmark::DoNotOptimize(sig::verify(q, msg, s));
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcqvEnroll(benchmark::State& state) {
  rng::TestRng rng(4);
  cert::CertificateAuthority ca(cert::DeviceId::from_string("ca"),
                                curve().random_scalar(rng));
  for (auto _ : state)
    benchmark::DoNotOptimize(ca.enroll(cert::DeviceId::from_string("dev"), 1000, 3600, rng));
}
BENCHMARK(BM_EcqvEnroll);

void BM_EcqvExtractPublicKey(benchmark::State& state) {
  rng::TestRng rng(5);
  cert::CertificateAuthority ca(cert::DeviceId::from_string("ca"),
                                curve().random_scalar(rng));
  const auto enrollment = ca.enroll(cert::DeviceId::from_string("dev"), 1000, 3600, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(cert::extract_public_key(enrollment->certificate, ca.public_key()));
}
BENCHMARK(BM_EcqvExtractPublicKey);

void BM_HmacDrbg(benchmark::State& state) {
  rng::HmacDrbg drbg(bytes_of("seed"));
  Bytes out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    drbg.fill(out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_HmacDrbg)->Arg(32)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  for (const auto& [key, value] : ecqv::bench::cpu_context_pairs())
    benchmark::AddCustomContext(key, value);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
