// Crypto substrate tests against published vectors (FIPS 180-4, RFC 4231,
// RFC 8439, RFC 7748) plus property tests.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simple_hash.hpp"
#include "crypto/x25519.hpp"

namespace kshot::crypto {
namespace {

std::string digest_hex(const Digest256& d) {
  return to_hex(ByteSpan(d.data(), d.size()));
}

// ---- SHA-256 ---------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  Bytes msg = to_bytes(std::string("abc"));
  EXPECT_EQ(digest_hex(sha256(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  Bytes msg = to_bytes(std::string(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  EXPECT_EQ(digest_hex(sha256(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(digest_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(42);
  Bytes msg = rng.next_bytes(10000);
  for (size_t split : {1ul, 63ul, 64ul, 65ul, 1000ul, 9999ul}) {
    Sha256 ctx;
    ctx.update(ByteSpan(msg).subspan(0, split));
    ctx.update(ByteSpan(msg).subspan(split));
    EXPECT_EQ(ctx.finish(), sha256(msg)) << "split at " << split;
  }
}

class Sha256LengthSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256LengthSweep, PaddingBoundariesDiffer) {
  // Messages of nearby lengths must not collide (exercises the padding
  // logic around block boundaries).
  size_t n = GetParam();
  Bytes a(n, 0x5a);
  Bytes b(n + 1, 0x5a);
  EXPECT_NE(sha256(a), sha256(b));
  if (n > 0) {
    Bytes c(a);
    c[n / 2] ^= 1;
    EXPECT_NE(sha256(a), sha256(c));
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256LengthSweep,
                         ::testing::Values(0, 1, 31, 54, 55, 56, 57, 63, 64,
                                           65, 119, 120, 127, 128, 129, 255));

// ---- HMAC-SHA256 (RFC 4231) -----------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes msg = to_bytes(std::string("Hi There"));
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Bytes key = to_bytes(std::string("Jefe"));
  Bytes msg = to_bytes(std::string("what do ya want for nothing?"));
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes msg(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  Bytes msg = to_bytes(
      std::string("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(digest_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  Bytes msg = to_bytes(std::string("payload"));
  Bytes k1(32, 1), k2(32, 1);
  k2[31] = 2;
  EXPECT_FALSE(digest_equal(hmac_sha256(k1, msg), hmac_sha256(k2, msg)));
}

TEST(Hmac, IncrementalMatchesOneShot) {
  Rng rng(4231);
  Bytes msg = rng.next_bytes(1000);
  for (size_t key_len : {20ul, 64ul, 131ul}) {
    Bytes key(key_len, 0xaa);
    for (size_t split : {0ul, 12ul, 64ul, 65ul, 999ul, 1000ul}) {
      HmacSha256 mac(key);
      mac.update(ByteSpan(msg).subspan(0, split));
      mac.update(ByteSpan(msg).subspan(split));
      EXPECT_EQ(mac.finish(), hmac_sha256(key, msg))
          << "key " << key_len << ", split at " << split;
    }
  }
}

TEST(Hmac, DigestEqualConstantTimeSemantics) {
  Digest256 a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
  b[31] = 0;
  b[0] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// ---- ChaCha20 (RFC 8439) ----------------------------------------------------

TEST(ChaCha20, Rfc8439BlockFunction) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<u8>(i);
  Nonce96 nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  u8 block[64];
  chacha20_block(key, nonce, 1, block);
  EXPECT_EQ(to_hex(ByteSpan(block, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<u8>(i);
  Nonce96 nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  Bytes plaintext = to_bytes(std::string(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it."));
  Bytes ct = chacha20(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ByteSpan(ct).subspan(0, 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Decryption is the same operation.
  EXPECT_EQ(chacha20(key, nonce, 1, ct), plaintext);
}

class ChaChaRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaChaRoundTrip, EncryptDecrypt) {
  Rng rng(GetParam() * 977 + 1);
  Key256 key;
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce;
  rng.fill(MutByteSpan(nonce.data(), nonce.size()));
  Bytes msg = rng.next_bytes(GetParam());
  Bytes ct = chacha20(key, nonce, 1, msg);
  if (!msg.empty()) {
    EXPECT_NE(ct, msg);
  }
  EXPECT_EQ(chacha20(key, nonce, 1, ct), msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChaChaRoundTrip,
                         ::testing::Values(0, 1, 63, 64, 65, 128, 1000, 4096,
                                           65536));

// ---- X25519 (RFC 7748) -------------------------------------------------------

TEST(X25519, Rfc7748Vector1) {
  auto scalar = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  X25519Key s{}, p{};
  std::copy(scalar->begin(), scalar->end(), s.begin());
  std::copy(point->begin(), point->end(), p.begin());
  X25519Key out = x25519(s, p);
  EXPECT_EQ(to_hex(ByteSpan(out.data(), 32)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  auto scalar = from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  X25519Key s{}, p{};
  std::copy(scalar->begin(), scalar->end(), s.begin());
  std::copy(point->begin(), point->end(), p.begin());
  X25519Key out = x25519(s, p);
  EXPECT_EQ(to_hex(ByteSpan(out.data(), 32)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748IteratedVectors) {
  // RFC 7748 §5.2: start with k = u = 9, then repeatedly set
  // (k, u) = (X25519(k, u), k). Squarings dominate the ladder, so this pins
  // fe_sq over thousands of chained inputs.
  X25519Key k{9}, u{9};
  auto step = [&] {
    X25519Key r = x25519(k, u);
    u = k;
    k = r;
  };
  step();
  EXPECT_EQ(to_hex(ByteSpan(k.data(), 32)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
  for (int i = 1; i < 1000; ++i) step();
  EXPECT_EQ(to_hex(ByteSpan(k.data(), 32)),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, Rfc7748DiffieHellman) {
  // Alice/Bob keys from RFC 7748 §6.1.
  auto a_priv_h = from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto b_priv_h = from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  X25519Key a_priv{}, b_priv{};
  std::copy(a_priv_h->begin(), a_priv_h->end(), a_priv.begin());
  std::copy(b_priv_h->begin(), b_priv_h->end(), b_priv.begin());

  X25519Key a_pub = x25519_base(a_priv);
  X25519Key b_pub = x25519_base(b_priv);
  EXPECT_EQ(to_hex(ByteSpan(a_pub.data(), 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(ByteSpan(b_pub.data(), 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  X25519Key shared_a = dh_shared(a_priv, b_pub);
  X25519Key shared_b = dh_shared(b_priv, a_pub);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(to_hex(ByteSpan(shared_a.data(), 32)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, GeneratedPairsAgree) {
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    DhKeyPair a = dh_generate(rng);
    DhKeyPair b = dh_generate(rng);
    EXPECT_EQ(dh_shared(a.private_key, b.public_key),
              dh_shared(b.private_key, a.public_key));
    EXPECT_NE(a.public_key, b.public_key);
  }
}

// ---- AEAD envelope -----------------------------------------------------------

TEST(Aead, RoundTrip) {
  Rng rng(11);
  Key256 key;
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  Bytes msg = rng.next_bytes(777);
  SealedBox box = seal(key, nonce, msg);
  auto open_r = open(key, box);
  ASSERT_TRUE(open_r.is_ok());
  EXPECT_EQ(*open_r, msg);
}

TEST(Aead, SerializeRoundTrip) {
  Rng rng(12);
  Key256 key;
  rng.fill(MutByteSpan(key.data(), key.size()));
  Nonce96 nonce{};
  nonce[0] = 9;
  SealedBox box = seal(key, nonce, rng.next_bytes(100));
  Bytes wire = box.serialize();
  auto parsed = SealedBox::deserialize(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->nonce, box.nonce);
  EXPECT_EQ(parsed->ciphertext, box.ciphertext);
  EXPECT_EQ(parsed->mac, box.mac);
}

TEST(Aead, TamperedCiphertextRejected) {
  Key256 key{};
  key[0] = 1;
  Nonce96 nonce{};
  Bytes msg = to_bytes(std::string("patch payload"));
  SealedBox box = seal(key, nonce, msg);
  box.ciphertext[3] ^= 0x80;
  auto r = open(key, box);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kIntegrityFailure);
}

TEST(Aead, TamperedMacRejected) {
  Key256 key{};
  Nonce96 nonce{};
  SealedBox box = seal(key, nonce, to_bytes(std::string("x")));
  box.mac[0] ^= 1;
  EXPECT_FALSE(open(key, box).is_ok());
}

TEST(Aead, WrongKeyRejected) {
  Key256 k1{}, k2{};
  k2[5] = 7;
  Nonce96 nonce{};
  SealedBox box = seal(k1, nonce, to_bytes(std::string("secret")));
  EXPECT_FALSE(open(k2, box).is_ok());
}

TEST(Aead, DeriveKeyLabelsDiffer) {
  Bytes secret = to_bytes(std::string("shared"));
  EXPECT_NE(derive_key(secret, "a"), derive_key(secret, "b"));
  EXPECT_EQ(derive_key(secret, "a"), derive_key(secret, "a"));
}

// ---- Simple hashes -----------------------------------------------------------

TEST(SimpleHash, SdbmKnownBehaviour) {
  // sdbm("") == 0 and single characters hash to themselves.
  EXPECT_EQ(sdbm({}), 0u);
  Bytes a = {'a'};
  EXPECT_EQ(sdbm(a), static_cast<u64>('a'));
  Bytes ab = {'a', 'b'};
  u64 expect = 'b' + (sdbm(a) << 6) + (sdbm(a) << 16) - sdbm(a);
  EXPECT_EQ(sdbm(ab), expect);
}

TEST(SimpleHash, Crc32KnownValue) {
  Bytes msg = to_bytes(std::string("123456789"));
  EXPECT_EQ(crc32(msg), 0xCBF43926u);  // classic check value
}

TEST(SimpleHash, Fnv1aKnownValue) {
  EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
  Bytes a = {'a'};
  EXPECT_EQ(fnv1a(a), 0xaf63dc4c8601ec8cULL);
}

TEST(SimpleHash, SensitivityProperty) {
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    Bytes m = rng.next_bytes(64);
    Bytes m2 = m;
    m2[static_cast<size_t>(rng.next_below(64))] ^= 0x10;
    EXPECT_NE(crc32(m), crc32(m2));
    EXPECT_NE(fnv1a(m), fnv1a(m2));
  }
}

}  // namespace
}  // namespace kshot::crypto
