#include "crypto/aead.hpp"

#include <cstring>

#include "common/byte_io.hpp"

namespace kshot::crypto {

namespace {

Digest256 mac_key(const Key256& key) {
  ByteWriter w;
  w.put_bytes(ByteSpan(key.data(), key.size()));
  w.put_bytes(to_bytes(std::string("mac")));
  return sha256(w.bytes());
}

// HMAC over nonce || ciphertext, fed piecewise so the ciphertext is never
// copied.
Digest256 compute_mac(const Key256& key, const Nonce96& nonce,
                      ByteSpan ciphertext) {
  Digest256 mk = mac_key(key);
  HmacSha256 mac(ByteSpan(mk.data(), mk.size()));
  mac.update(ByteSpan(nonce.data(), nonce.size()));
  mac.update(ciphertext);
  return mac.finish();
}

}  // namespace

Bytes SealedBox::serialize() const {
  ByteWriter w;
  w.put_bytes(ByteSpan(nonce.data(), nonce.size()));
  w.put_u32(static_cast<u32>(ciphertext.size()));
  w.put_bytes(ciphertext);
  w.put_bytes(ByteSpan(mac.data(), mac.size()));
  return w.take();
}

Result<SealedBox> SealedBox::deserialize(ByteSpan wire) {
  ByteReader r(wire);
  SealedBox box;
  auto nonce = r.get_bytes(box.nonce.size());
  if (!nonce) return nonce.status();
  std::memcpy(box.nonce.data(), nonce->data(), box.nonce.size());
  auto len = r.get_u32();
  if (!len) return len.status();
  auto ct = r.get_bytes(*len);
  if (!ct) return ct.status();
  box.ciphertext = std::move(*ct);
  auto mac = r.get_bytes(box.mac.size());
  if (!mac) return mac.status();
  std::memcpy(box.mac.data(), mac->data(), box.mac.size());
  return box;
}

SealedBox seal(const Key256& key, const Nonce96& nonce, ByteSpan plaintext) {
  SealedBox box;
  box.nonce = nonce;
  box.ciphertext = chacha20(key, nonce, 1, plaintext);
  box.mac = compute_mac(key, nonce, box.ciphertext);
  return box;
}

Result<Bytes> open(const Key256& key, const SealedBox& box) {
  Digest256 expect = compute_mac(key, box.nonce, box.ciphertext);
  if (!digest_equal(expect, box.mac)) {
    return {Errc::kIntegrityFailure, "AEAD MAC mismatch"};
  }
  return chacha20(key, box.nonce, 1, box.ciphertext);
}

Result<SealedBoxView> SealedBoxView::deserialize(MutByteSpan wire) {
  SealedBoxView v;
  constexpr size_t kNonce = sizeof(Nonce96);
  constexpr size_t kMac = sizeof(Digest256);
  // Framing identical to SealedBox::deserialize, reusing ByteReader for the
  // error statuses; the ciphertext is carved out of `wire` mutably.
  ByteReader r(ByteSpan(wire.data(), wire.size()));
  auto nonce = r.get_span(kNonce);
  if (!nonce) return nonce.status();
  std::memcpy(v.nonce.data(), nonce->data(), kNonce);
  auto len = r.get_u32();
  if (!len) return len.status();
  auto ct = r.get_span(*len);
  if (!ct) return ct.status();
  v.ciphertext = wire.subspan(kNonce + 4, *len);
  auto mac = r.get_span(kMac);
  if (!mac) return mac.status();
  std::memcpy(v.mac.data(), mac->data(), kMac);
  return v;
}

Result<MutByteSpan> open_in_place(const Key256& key, SealedBoxView view) {
  Digest256 expect =
      compute_mac(key, view.nonce,
                  ByteSpan(view.ciphertext.data(), view.ciphertext.size()));
  if (!digest_equal(expect, view.mac)) {
    return {Errc::kIntegrityFailure, "AEAD MAC mismatch"};
  }
  chacha20_xor(key, view.nonce, 1, view.ciphertext);
  return view.ciphertext;
}

Status seal_in_place(const Key256& key, const Nonce96& nonce, MutByteSpan wire,
                     size_t plain_len) {
  constexpr size_t kNonce = sizeof(Nonce96);
  constexpr size_t kMac = sizeof(Digest256);
  if (wire.size() != kNonce + 4 + plain_len + kMac) {
    return {Errc::kInvalidArgument, "seal_in_place: bad buffer size"};
  }
  std::memcpy(wire.data(), nonce.data(), kNonce);
  store_u32(wire.data() + kNonce, static_cast<u32>(plain_len));
  MutByteSpan ct = wire.subspan(kNonce + 4, plain_len);
  chacha20_xor(key, nonce, 1, ct);
  Digest256 mac = compute_mac(key, nonce, ByteSpan(ct.data(), ct.size()));
  std::memcpy(wire.data() + kNonce + 4 + plain_len, mac.data(), kMac);
  return Status::ok();
}

Key256 derive_key(ByteSpan shared_secret, const std::string& label) {
  ByteWriter w;
  w.put_bytes(shared_secret);
  w.put_bytes(to_bytes(label));
  Digest256 d = sha256(w.bytes());
  Key256 k;
  std::memcpy(k.data(), d.data(), k.size());
  return k;
}

}  // namespace kshot::crypto
