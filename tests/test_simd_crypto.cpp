// SIMD crypto differential: the SHA-NI and 4-lane u32x4 kernels behind
// SHA-256, the u32x4 ChaCha20 keystream and the slicing-by-8 CRC32 must be
// bit-identical to their scalar references on every input shape — standard
// NIST/RFC vectors, every length 0..257, every unaligned source offset
// 0..15, multi-block sizes, every split of an incremental update, and sizes
// spanning the 4-lane ChaCha20 threshold. Every case here flips the runtime
// toggles itself, so one run of this binary exercises every code path the
// host has — no separate CI matrix leg needed to keep the fallbacks honest.
// On a host without SHA-NI its mode runs the u32x4 path twice.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simd.hpp"
#include "crypto/simple_hash.hpp"

namespace kshot::crypto {
namespace {

/// RAII toggle so a failing ASSERT can't leave the process-wide switch off.
class SimdMode {
 public:
  explicit SimdMode(bool on) : prev_(simd_enabled()) { set_simd_enabled(on); }
  ~SimdMode() { set_simd_enabled(prev_); }

 private:
  bool prev_;
};

/// The three SHA-256 compress paths the dispatch can take.
enum class ShaPath { kScalar, kVector, kShaNi };
constexpr ShaPath kShaPaths[] = {ShaPath::kScalar, ShaPath::kVector,
                                 ShaPath::kShaNi};

const char* name_of(ShaPath p) {
  switch (p) {
    case ShaPath::kScalar: return "scalar";
    case ShaPath::kVector: return "u32x4";
    case ShaPath::kShaNi: return "sha-ni";
  }
  return "?";
}

/// RAII selection of one SHA-256 path through both process-wide switches;
/// the SHA-NI switch goes back to its default (on) afterwards.
class ShaMode {
 public:
  explicit ShaMode(ShaPath p) : simd_(p != ShaPath::kScalar) {
    set_sha_ni_enabled(p == ShaPath::kShaNi);
  }
  ~ShaMode() { set_sha_ni_enabled(true); }

 private:
  SimdMode simd_;
};

std::string hex_digest(ByteSpan data) {
  Digest256 d = sha256(data);
  return to_hex(ByteSpan(d.data(), d.size()));
}

std::string hex_digest_in(ShaPath p, ByteSpan data) {
  ShaMode mode(p);
  return hex_digest(data);
}

/// Bitwise CRC-32 straight from the polynomial: the reference the
/// slicing-by-8 tables must reproduce.
u32 crc32_bitwise(ByteSpan data) {
  u32 c = 0xFFFFFFFFu;
  for (u8 b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
  }
  return c ^ 0xFFFFFFFFu;
}

ByteSpan span_of(const std::string& s) {
  return ByteSpan(reinterpret_cast<const u8*>(s.data()), s.size());
}

TEST(SimdSha256, NistVectorsPassInBothModes) {
  const std::pair<std::string, std::string> vectors[] = {
      {"",
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (ShaPath p : kShaPaths) {
    ShaMode mode(p);
    for (const auto& [msg, want] : vectors) {
      EXPECT_EQ(hex_digest(span_of(msg)), want)
          << name_of(p) << " mode, message \"" << msg << "\"";
    }
  }
}

TEST(SimdSha256, MillionAsPassesInBothModes) {
  std::string msg(1'000'000, 'a');
  const char* want =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  for (ShaPath p : kShaPaths) {
    EXPECT_EQ(hex_digest_in(p, span_of(msg)), want) << name_of(p);
  }
}

TEST(SimdSha256, EveryLengthAndOffsetMatchesScalar) {
  Rng rng(0x51D0);
  // One oversized backing buffer; each case hashes buf[off .. off+len).
  Bytes buf(16 + 257 + 64);
  rng.fill(MutByteSpan(buf.data(), buf.size()));
  for (size_t len = 0; len <= 257; ++len) {
    for (size_t off = 0; off < 16; ++off) {
      ByteSpan in(buf.data() + off, len);
      const std::string scalar_d = hex_digest_in(ShaPath::kScalar, in);
      for (ShaPath p : {ShaPath::kVector, ShaPath::kShaNi}) {
        ASSERT_EQ(scalar_d, hex_digest_in(p, in))
            << name_of(p) << " len=" << len << " off=" << off;
      }
    }
  }
}

TEST(SimdSha256, MultiBlockLengthsMatchScalar) {
  // The SHA-NI kernel takes every whole block of an update in one call;
  // these lengths put 63/64/65 and 1024+k blocks through it.
  RecordProperty("sha_ni", sha_ni_supported() ? "1" : "0");
  std::printf("sha_ni=%d (SHA-256 path under the default toggles: %s)\n",
              sha_ni_supported() ? 1 : 0,
              sha_ni_supported() ? "sha-ni" : "u32x4");
  Rng rng(0xB10C5);
  Bytes buf = rng.next_bytes(65536 + 64 + 1);
  std::vector<size_t> lengths = {4095, 4096, 4097};
  for (size_t k = 0; k <= 64; ++k) lengths.push_back(65536 + k);
  for (size_t len : lengths) {
    // Odd source offset: the kernels must not assume aligned input.
    ByteSpan in(buf.data() + 1, len);
    const std::string scalar_d = hex_digest_in(ShaPath::kScalar, in);
    for (ShaPath p : {ShaPath::kVector, ShaPath::kShaNi}) {
      ASSERT_EQ(scalar_d, hex_digest_in(p, in)) << name_of(p) << " len=" << len;
    }
  }
}

TEST(SimdSha256, UpdateSplitAtEveryBoundaryMatchesOneShot) {
  // Splitting one message into two update() calls at every point 0..128
  // interleaves the buffered-block path with the bulk path in every phase.
  Rng rng(0x5B117);
  Bytes msg = rng.next_bytes(64 * 5 + 17);
  const ByteSpan all(msg.data(), msg.size());
  const std::string want = hex_digest_in(ShaPath::kScalar, all);
  for (ShaPath p : kShaPaths) {
    ShaMode mode(p);
    for (size_t cut = 0; cut <= 128; ++cut) {
      Sha256 ctx;
      ctx.update(all.subspan(0, cut));
      ctx.update(all.subspan(cut));
      Digest256 d = ctx.finish();
      ASSERT_EQ(to_hex(ByteSpan(d.data(), d.size())), want)
          << name_of(p) << " cut=" << cut;
    }
  }
}

TEST(SimdCrc32, EveryLengthAndOffsetMatchesBitwiseReference) {
  Rng rng(0xC4C32);
  Bytes buf(16 + 257);
  rng.fill(MutByteSpan(buf.data(), buf.size()));
  for (size_t len = 0; len <= 257; ++len) {
    for (size_t off = 0; off < 16; ++off) {
      ByteSpan in(buf.data() + off, len);
      ASSERT_EQ(crc32(in), crc32_bitwise(in))
          << "len=" << len << " off=" << off;
    }
  }
}

TEST(SimdChaCha20, Rfc8439SunscreenVectorPassesInBothModes) {
  // RFC 8439 §2.4.2.
  Key256 key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<u8>(i);
  Nonce96 nonce{};
  nonce[7] = 0x4a;
  const std::string plain =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const char* want_hex =
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d";
  for (bool simd : {false, true}) {
    SimdMode mode(simd);
    Bytes data(plain.begin(), plain.end());
    chacha20_xor(key, nonce, 1, MutByteSpan(data.data(), data.size()));
    EXPECT_EQ(to_hex(ByteSpan(data.data(), data.size())), want_hex)
        << (simd ? "simd" : "scalar");
  }
}

TEST(SimdChaCha20, EveryLengthAndOffsetMatchesScalar) {
  Rng rng(0xC8AC4A);
  Key256 key{};
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes buf(16 + 257);
  rng.fill(MutByteSpan(buf.data(), buf.size()));
  for (size_t len = 0; len <= 257; ++len) {
    for (size_t off = 0; off < 16; ++off) {
      Bytes a(buf.begin() + static_cast<std::ptrdiff_t>(off),
              buf.begin() + static_cast<std::ptrdiff_t>(off + len));
      Bytes b = a;
      {
        SimdMode mode(false);
        chacha20_xor(key, nonce, 7, MutByteSpan(a.data(), a.size()));
      }
      {
        SimdMode mode(true);
        chacha20_xor(key, nonce, 7, MutByteSpan(b.data(), b.size()));
      }
      ASSERT_EQ(a, b) << "len=" << len << " off=" << off;
    }
  }
}

TEST(SimdChaCha20, MultiBlockSizesAcrossTheFourLaneThreshold) {
  // The 4-lane keystream engages at >= 256 bytes; cover sizes around every
  // interesting boundary: below, at, odd tails past whole 4-block groups.
  Rng rng(0x4B10C5);
  Key256 key{};
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  for (size_t len : {255u, 256u, 257u, 319u, 320u, 511u, 512u, 513u, 1024u,
                     1087u, 4096u, 4099u}) {
    Bytes a = rng.next_bytes(len);
    Bytes b = a;
    {
      SimdMode mode(false);
      chacha20_xor(key, nonce, 1, MutByteSpan(a.data(), a.size()));
    }
    {
      SimdMode mode(true);
      chacha20_xor(key, nonce, 1, MutByteSpan(b.data(), b.size()));
    }
    ASSERT_EQ(a, b) << "len=" << len;
  }
}

}  // namespace
}  // namespace kshot::crypto
