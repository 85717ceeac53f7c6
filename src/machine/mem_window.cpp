#include "machine/mem_window.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace kshot::machine {

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

void MemWindow::require_covers(ByteSpan image) const {
  if (!ranges_.empty() && image.size() < ranges_.back().end) std::abort();
}

std::optional<u64> MemWindow::first_difference(ByteSpan cur,
                                               ByteSpan expected) const {
  require_covers(cur);
  require_covers(expected);
  for (const Range& r : ranges_) {
    const u8* a = cur.data() + r.begin;
    const u8* b = expected.data() + r.begin;
    const size_t n = r.end - r.begin;
    if (std::memcmp(a, b, n) == 0) continue;
    return r.begin + static_cast<u64>(std::mismatch(a, a + n, b).first - a);
  }
  return std::nullopt;
}

void MemWindow::hash_into(crypto::Sha256& h, ByteSpan image) const {
  require_covers(image);
  for (const Range& r : ranges_) {
    h.update(ByteSpan(image.data() + r.begin, r.end - r.begin));
  }
}

}  // namespace kshot::machine
