// Process-wide hashing work counters. crypto.sha256_bytes counts the bytes
// handed to Sha256::update, finish()'s padding included, so over finished
// digests it is 64 × the blocks compressed; crypto.crc32_bytes counts the
// bytes handed to crc32. Each is bumped once per call with a relaxed atomic
// add, never per block, so the hot loops stay untouched. Diff two
// snapshots to price one operation, e.g. hashed bytes per package byte.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace kshot::crypto {

struct HashCounts {
  u64 sha256_bytes = 0;
  u64 crc32_bytes = 0;
};

namespace detail {
inline std::atomic<u64> sha256_bytes{0};
inline std::atomic<u64> crc32_bytes{0};
}  // namespace detail

inline HashCounts hash_counts() {
  return {detail::sha256_bytes.load(std::memory_order_relaxed),
          detail::crc32_bytes.load(std::memory_order_relaxed)};
}

}  // namespace kshot::crypto
