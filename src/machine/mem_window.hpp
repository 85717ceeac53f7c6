// A compared window of physical memory: [lo, hi) minus a list of excluded
// ranges, held as the sorted, disjoint, non-empty ranges that remain. It is
// the one primitive behind every full-memory oracle (snapshot compare and
// state digest), so each works a range at a time at memcmp/SHA-256 speed
// instead of testing every byte against the exclusions.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace kshot::machine {

class MemWindow {
 public:
  /// [begin, end) in physical addresses.
  struct Range {
    u64 begin = 0;
    u64 end = 0;
  };

  /// Exclusions may overlap, touch, be empty or fall partly or wholly
  /// outside [lo, hi); an empty window (lo >= hi) compares nothing.
  MemWindow(u64 lo, u64 hi, std::vector<Range> excluded = {});

  [[nodiscard]] const std::vector<Range>& ranges() const { return ranges_; }

  /// Lowest address in the window where the two images differ, or nullopt.
  /// Both spans are indexed by physical address and must cover the window.
  [[nodiscard]] std::optional<u64> first_difference(ByteSpan cur,
                                                    ByteSpan expected) const;

  /// Feeds the window's bytes of `image` (indexed by physical address) to
  /// `h` in address order: the same stream as hashing them concatenated.
  void hash_into(crypto::Sha256& h, ByteSpan image) const;

 private:
  void require_covers(ByteSpan image) const;

  std::vector<Range> ranges_;
};

}  // namespace kshot::machine
