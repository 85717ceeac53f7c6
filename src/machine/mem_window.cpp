#include "machine/mem_window.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/byte_io.hpp"

namespace kshot::machine {

namespace {

alignas(64) const u8 kZeroPage[kPageSize] = {};

/// Calls `fn(page, a, b)` for every page-clipped chunk [a, b) of `r`.
template <typename Fn>
void for_each_chunk(const MemWindow::Range& r, Fn&& fn) {
  for (u64 page = r.begin / kPageSize; page * kPageSize < r.end; ++page) {
    const u64 a = std::max(r.begin, page * kPageSize);
    const u64 b = std::min(r.end, (page + 1) * kPageSize);
    fn(page, a, b);
  }
}

}  // namespace

// ---- MemImage ----------------------------------------------------------------

size_t MemImage::find(u64 index) const {
  auto it = std::lower_bound(index_.begin(), index_.end(), index);
  return it != index_.end() && *it == index
             ? static_cast<size_t>(it - index_.begin())
             : index_.size();
}

void MemImage::capture(const PhysMem& mem, u64 lo, u64 hi) {
  index_.clear();
  bytes_.clear();
  hi = std::min<u64>(hi, mem.size());
  for (u64 page = lo / kPageSize; page * kPageSize < hi; ++page) {
    if (!mem.page_written(page)) continue;
    const u64 base = page * kPageSize;
    const size_t n = std::min<u64>(kPageSize, mem.size() - base);
    index_.push_back(page);
    bytes_.resize(bytes_.size() + kPageSize);
    std::memcpy(bytes_.data() + bytes_.size() - kPageSize, mem.raw(base, n), n);
  }
}

const u8* MemImage::page(u64 index) const {
  const size_t i = find(index);
  return i == index_.size() ? nullptr : bytes_.data() + i * kPageSize;
}

u8 MemImage::byte_at(u64 addr) const {
  const u8* p = page(addr / kPageSize);
  return p ? p[addr % kPageSize] : 0;
}

void MemImage::write(u64 addr, ByteSpan bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const u64 at = addr + done;
    const u64 index = at / kPageSize;
    auto it = std::lower_bound(index_.begin(), index_.end(), index);
    const size_t i = static_cast<size_t>(it - index_.begin());
    if (it == index_.end() || *it != index) {
      index_.insert(it, index);
      bytes_.insert(bytes_.begin() + static_cast<std::ptrdiff_t>(i * kPageSize),
                    kPageSize, 0);
    }
    const size_t off = at % kPageSize;
    const size_t n = std::min(bytes.size() - done, kPageSize - off);
    std::memcpy(bytes_.data() + i * kPageSize + off, bytes.data() + done, n);
    done += n;
  }
}

// ---- MemWindow ---------------------------------------------------------------

MemWindow::MemWindow(u64 lo, u64 hi, std::vector<Range> excluded) {
  std::sort(excluded.begin(), excluded.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });
  u64 cursor = lo;
  for (const Range& ex : excluded) {
    if (cursor >= hi) break;
    if (ex.end <= cursor || ex.begin >= ex.end) continue;
    if (ex.begin > cursor) ranges_.push_back({cursor, std::min(ex.begin, hi)});
    cursor = ex.end;
  }
  if (cursor < hi) ranges_.push_back({cursor, hi});
}

void MemWindow::require_covers(const PhysMem& mem) const {
  if (!ranges_.empty() && mem.size() < ranges_.back().end) std::abort();
}

std::optional<u64> MemWindow::first_difference(
    const PhysMem& cur, const MemImage& expected) const {
  require_covers(cur);
  const std::vector<u64>& held = expected.pages();
  size_t k = 0;  // cursor into `held`; pages are visited in ascending order
  std::optional<u64> found;
  for (const Range& r : ranges_) {
    for_each_chunk(r, [&](u64 page, u64 a, u64 b) {
      if (found) return;
      while (k < held.size() && held[k] < page) ++k;
      const bool in_image = k < held.size() && held[k] == page;
      if (!in_image && !cur.page_written(page)) return;  // zero on both sides
      const size_t off = a - page * kPageSize;
      const size_t n = b - a;
      const u8* got = cur.page_written(page) ? cur.raw(a, n) : kZeroPage + off;
      const u8* want = in_image ? expected.page(page) + off : kZeroPage + off;
      if (std::memcmp(got, want, n) == 0) return;
      found = a + static_cast<u64>(std::mismatch(got, got + n, want).first - got);
    });
    if (found) break;
  }
  return found;
}

void MemWindow::hash_into(crypto::Sha256& h, const PhysMem& mem) const {
  require_covers(mem);
  for (const Range& r : ranges_) {
    for_each_chunk(r, [&](u64 page, u64 a, u64 b) {
      if (!mem.page_written(page)) return;
      const size_t n = b - a;
      const u8* bytes = mem.raw(a, n);
      if (std::memcmp(bytes, kZeroPage, n) == 0) return;
      u8 head[12];
      store_u64(head, a);
      store_u32(head + 8, static_cast<u32>(n));
      h.update(ByteSpan(head, sizeof(head)));
      h.update(ByteSpan(bytes, n));
    });
  }
}

std::optional<u64> MemWindow::first_undeclared_page(
    const PhysMem& mem, u32 generation,
    const std::vector<Range>& declared) const {
  require_covers(mem);
  std::optional<u64> found;
  u64 last_page = ~u64{0};  // a page split by an exclusion is visited twice
  for (const Range& r : ranges_) {
    for_each_chunk(r, [&](u64 page, u64, u64) {
      if (found || page == last_page) return;
      last_page = page;
      if (mem.page_generation(page) != generation) return;
      const u64 base = page * kPageSize;
      for (const Range& d : declared) {
        if (d.begin < base + kPageSize && base < d.end) return;
      }
      found = base;
    });
    if (found) break;
  }
  return found;
}

}  // namespace kshot::machine
