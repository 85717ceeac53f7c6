// The full-memory oracle primitives. A MemImage is a sparse snapshot of
// physical memory: only the pages PhysMem has seen written are copied, and
// every other page is known to be zero. A MemWindow is [lo, hi) minus a list
// of excluded ranges, held as the sorted, disjoint, non-empty ranges that
// remain; it compares live memory against a MemImage and digests live
// memory. Both cost what was written, not the size of the window: a page
// that was never written and is not in the image is skipped unread.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "crypto/sha256.hpp"
#include "machine/phys_mem.hpp"

namespace kshot::machine {

class MemImage {
 public:
  /// Replaces the image with a copy of the written pages of `mem` that
  /// overlap [lo, hi) (whole pages). Storage is reused across captures.
  void capture(const PhysMem& mem, u64 lo, u64 hi);

  /// Byte at `addr`: the captured or written value, zero for a page the
  /// image does not hold.
  [[nodiscard]] u8 byte_at(u64 addr) const;
  /// Overwrites [addr, addr + bytes.size()), adding zero pages as needed.
  void write(u64 addr, ByteSpan bytes);

  /// The held page `index` (kPageSize bytes), or nullptr when it is zero.
  [[nodiscard]] const u8* page(u64 index) const;
  /// Page indices the image holds, ascending.
  [[nodiscard]] const std::vector<u64>& pages() const { return index_; }

 private:
  /// Position of `index` in index_ (== index_.size() when absent).
  [[nodiscard]] size_t find(u64 index) const;

  std::vector<u64> index_;  // sorted page indices
  Bytes bytes_;             // index_[i]'s page at bytes_[i * kPageSize]
};

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

  /// Lowest address in the window where `cur` differs from `expected`, or
  /// nullopt. Only pages written in `cur` or held by `expected` are read.
  [[nodiscard]] std::optional<u64> first_difference(
      const PhysMem& cur, const MemImage& expected) const;

  /// Content-defined sparse digest of the window's bytes of `mem`: in
  /// address order, every page-clipped chunk of a window range that holds a
  /// nonzero byte is fed to `h` as `u64 addr LE || u32 len LE || bytes`.
  /// Equal contents give equal digests whatever the write history; pages
  /// never written are skipped unread.
  void hash_into(crypto::Sha256& h, const PhysMem& mem) const;

  /// Lowest address of a page in the window stamped with write generation
  /// `generation` that overlaps none of `declared`, or nullopt: the
  /// "every page this SMI wrote was one it was allowed to write" oracle.
  [[nodiscard]] std::optional<u64> first_undeclared_page(
      const PhysMem& mem, u32 generation,
      const std::vector<Range>& declared) const;

 private:
  void require_covers(const PhysMem& mem) const;

  std::vector<Range> ranges_;
};

}  // namespace kshot::machine
