// Non-cryptographic hashes. The paper (§VI-C2) notes patch verification time
// is dominated by SHA-2 and "could be reduced by employing a simpler hashing
// algorithm such as SDBM" — these back the bench_ablation_hash experiment.
#pragma once

#include "common/types.hpp"

namespace kshot::crypto {

/// SDBM string hash extended to byte spans.
u64 sdbm(ByteSpan data);

/// FNV-1a 64-bit.
u64 fnv1a(ByteSpan data);

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
u32 crc32(ByteSpan data);

}  // namespace kshot::crypto
