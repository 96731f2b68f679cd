// SHA-256 (FIPS 180-4).
//
// Streaming interface plus one-shot helper. The compression function bumps
// Op::kSha256Block once per 64-byte block actually processed, so the device
// cost model prices hashing identically on every dispatch tier.
//
// Full blocks reach the compression function in one multi-block call, and
// finish() pads in place and compresses one or two blocks. The SHA-NI
// kernel (hash/shani.cpp) runs them when sha_hw_available(); otherwise the
// portable C body does — bit-identical output either way.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace ecqv::hash {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(ByteView data);

  /// Finalizes and returns the digest. The object must be reset() before
  /// further use.
  [[nodiscard]] Digest finish();

  /// True when this digest runs on the SHA-NI kernel; fixed at reset().
  [[nodiscard]] bool hardware() const { return hw_; }

 private:
  void compress(const std::uint8_t* blocks, std::size_t nblocks);

  std::array<std::uint32_t, 8> state_{};
  // update() only ever fills the first block; finish() pads into both.
  std::array<std::uint8_t, 2 * kSha256BlockSize> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool hw_ = false;
};

/// True when the SHA-NI kernel is active: the CPU reports SHA (and SSE4.1)
/// and the ECQV_DISABLE_SHANI environment kill switch is unset/0 (compile
/// gate ECQV_NO_SHANI, folded into -DECQV_PORTABLE_ONLY). Sha256 reads it
/// at every reset(), so the switch works mid-process and one digest never
/// changes tier half way.
[[nodiscard]] bool sha_hw_available();

/// One-shot convenience.
Digest sha256(ByteView data);

/// One-shot over a concatenation, avoiding an intermediate buffer.
Digest sha256(std::initializer_list<ByteView> parts);

}  // namespace ecqv::hash
