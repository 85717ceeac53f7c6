#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/counters.hpp"
#include "crypto/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KSHOT_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace kshot::crypto {

namespace {

constexpr u32 kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline u32 rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }

std::atomic<bool> g_sha_ni_on{true};

#ifdef KSHOT_SHA_NI

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  const bool sha = (b & (1u << 29)) != 0;  // CPUID.(7,0):EBX.SHA
  return ssse3 && sse41 && sha;
}

// Multi-block SHA-NI kernel. The state lives in two registers in the order
// the sha256rnds2 instruction wants (ABEF, CDGH). Each of the 16 steps does
// four rounds (two rnds2 on W+K) while sha256msg1/msg2 extend the message
// schedule by the four words the next step uses. The rounds are the
// FIPS 180-4 rounds, so the digest equals the portable path's.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_sha_ni(
    u32 h[8], const u8* data, size_t nblocks) {
  const __m128i kBswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int r = 0; r < 16; ++r) {
      if (r < 4) {
        w[r] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * r)),
            kBswap);
      }
      const __m128i k4 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * r));
      __m128i wk = _mm_add_epi32(w[r % 4], k4);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (r >= 3 && r <= 14) {
        // W[4(r+1) .. 4(r+1)+3], from the msg1 partial sums plus W[t-7].
        __m128i& next = w[(r + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[r % 4], w[(r + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[r % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (r >= 1 && r <= 12) {
        w[(r + 3) % 4] = _mm_sha256msg1_epu32(w[(r + 3) % 4], w[r % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // KSHOT_SHA_NI

}  // namespace

bool sha_ni_supported() {
#ifdef KSHOT_SHA_NI
  static const bool supported = cpu_has_sha_ni();
  return supported;
#else
  return false;
#endif
}

void set_sha_ni_enabled(bool on) {
  g_sha_ni_on.store(on, std::memory_order_relaxed);
}

bool sha_ni_enabled() {
  return sha_ni_supported() && g_sha_ni_on.load(std::memory_order_relaxed);
}

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::compress(const u8 block[64]) {
  u32 w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<u32>(block[4 * i]) << 24) |
           (static_cast<u32>(block[4 * i + 1]) << 16) |
           (static_cast<u32>(block[4 * i + 2]) << 8) |
           static_cast<u32>(block[4 * i + 3]);
  }
  if (simd_enabled()) {
    // Vectorize the independent part of the schedule recurrence: for four
    // consecutive words, t[k] = w[i+k-16] + s0(w[i+k-15]) + w[i+k-7] only
    // reads words below i, so it computes in one 4-lane pass. The s1 term
    // reads w[i+k-2] — inside the group for lanes 2 and 3 — and is fixed up
    // sequentially. All adds are mod 2^32, so the result is bit-identical
    // to the scalar loop.
    for (int i = 16; i < 64; i += 4) {
      u32x4 wm15 = u32x4::make(w[i - 15], w[i - 14], w[i - 13], w[i - 12]);
      u32x4 s0 = vrotr(wm15, 7) ^ vrotr(wm15, 18) ^ vshr(wm15, 3);
      u32x4 t = u32x4::make(w[i - 16], w[i - 15], w[i - 14], w[i - 13]) + s0 +
                u32x4::make(w[i - 7], w[i - 6], w[i - 5], w[i - 4]);
      for (int k = 0; k < 4; ++k) {
        u32 x = w[i + k - 2];
        w[i + k] = t.lane(k) + (rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10));
      }
    }
  } else {
    for (int i = 16; i < 64; ++i) {
      u32 s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      u32 s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
  }

  u32 a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  u32 e = h_[4], f = h_[5], g = h_[6], h = h_[7];

  for (int i = 0; i < 64; ++i) {
    u32 s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    u32 ch = (e & f) ^ (~e & g);
    u32 t1 = h + s1 + ch + kK[i] + w[i];
    u32 s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    u32 maj = (a & b) ^ (a & c) ^ (b & c);
    u32 t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::compress_blocks(const u8* data, size_t nblocks) {
  if (nblocks == 0) return;
#ifdef KSHOT_SHA_NI
  if (simd_enabled() && sha_ni_enabled()) {
    compress_sha_ni(h_.data(), data, nblocks);
    return;
  }
#endif
  for (size_t i = 0; i < nblocks; ++i) compress(data + 64 * i);
}

void Sha256::update(ByteSpan data) {
  detail::sha256_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), size_t{64} - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == 64) {
      compress_blocks(buf_, 1);
      buf_len_ = 0;
    }
  }
  const size_t nblocks = (data.size() - off) / 64;
  compress_blocks(data.data() + off, nblocks);
  off += 64 * nblocks;
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest256 Sha256::finish() {
  u64 bit_len = total_len_ * 8;
  u8 pad[72];
  size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  for (int i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  update(ByteSpan(pad, pad_len + 8));

  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<u8>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<u8>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<u8>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<u8>(h_[i]);
  }
  return out;
}

Digest256 sha256(ByteSpan data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace kshot::crypto
