// SHA-256 (FIPS 180-4), implemented from the specification. Used as the
// patch package verification hash (paper §VI-C2: "the majority of the patch
// time comes from the patch verification process, which involves computing a
// SHA-2 hash").
#pragma once

#include <array>

#include "common/types.hpp"

namespace kshot::crypto {

using Digest256 = std::array<u8, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(ByteSpan data);
  /// Finalizes and returns the digest; the context must be reset() before
  /// further use.
  Digest256 finish();

 private:
  /// Runs every whole block through one kernel, picked once per call:
  /// SHA-NI when sha_ni_enabled() and simd_enabled(), else compress().
  void compress_blocks(const u8* data, size_t nblocks);
  void compress(const u8 block[64]);

  std::array<u32, 8> h_{};
  u8 buf_[64];
  size_t buf_len_ = 0;
  u64 total_len_ = 0;
};

/// One-shot convenience.
Digest256 sha256(ByteSpan data);

/// True when this CPU reports the SHA, SSSE3 and SSE4.1 extensions the
/// hardware compress kernel needs. cpuid is read once and cached; always
/// false on builds for other architectures.
bool sha_ni_supported();

/// Process-wide switch for the SHA-NI kernel, default on. It only narrows
/// the dispatch: turning it off on a SHA-NI host reaches the portable u32x4
/// path, and set_simd_enabled(false) forces the scalar reference whatever
/// this says. The digests are identical on every path.
void set_sha_ni_enabled(bool on);
/// sha_ni_supported() and the switch above.
bool sha_ni_enabled();

}  // namespace kshot::crypto
