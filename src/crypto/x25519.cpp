#include "crypto/x25519.hpp"

#include <cstring>

namespace kshot::crypto {

namespace {

// Field element mod p = 2^255 - 19, five 51-bit limbs.
struct Fe {
  u64 v[5];
};

using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

Fe fe_zero() { return {{0, 0, 0, 0, 0}}; }
Fe fe_one() { return {{1, 0, 0, 0, 0}}; }

Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a - b, adding a multiple of p to keep limbs nonnegative.
Fe fe_sub(const Fe& a, const Fe& b) {
  // 2*p, spread across limbs, is added before subtracting.
  Fe r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDA * 2 - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFE * 2 - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFE * 2 - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFE * 2 - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFE * 2 - b.v[4];
  return r;
}

void fe_carry(Fe& r, u128 t[5]) {
  u64 c;
  c = static_cast<u64>(t[0] >> 51); t[1] += c; r.v[0] = static_cast<u64>(t[0]) & kMask51;
  c = static_cast<u64>(t[1] >> 51); t[2] += c; r.v[1] = static_cast<u64>(t[1]) & kMask51;
  c = static_cast<u64>(t[2] >> 51); t[3] += c; r.v[2] = static_cast<u64>(t[2]) & kMask51;
  c = static_cast<u64>(t[3] >> 51); t[4] += c; r.v[3] = static_cast<u64>(t[3]) & kMask51;
  c = static_cast<u64>(t[4] >> 51); r.v[4] = static_cast<u64>(t[4]) & kMask51;
  r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
}

Fe fe_mul(const Fe& a, const Fe& b) {
  u128 t[5] = {};
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      u128 prod = static_cast<u128>(a.v[i]) * b.v[j];
      int k = i + j;
      if (k >= 5) {
        k -= 5;
        prod *= 19;
      }
      t[k] += prod;
    }
  }
  Fe r;
  fe_carry(r, t);
  return r;
}

// a^2 from 15 products instead of fe_mul's 25: each cross term a_i*a_j
// (i != j) appears once, doubled. The column sums are the same integers
// fe_mul(a, a) accumulates, so the carried limbs are bit-identical. The
// pre-scaled 19*a_i and 2*a_i fit in u64 while limbs stay below 2^54; the
// ladder and the inversion chain feed at most ~2^53.3.
Fe fe_sq(const Fe& a) {
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  const u64 a3_19 = 19 * a3, a4_19 = 19 * a4;
  auto m = [](u64 x, u64 y) { return static_cast<u128>(x) * y; };
  u128 t[5];
  t[0] = m(a0, a0) + m(d1, a4_19) + m(d2, a3_19);
  t[1] = m(d0, a1) + m(d2, a4_19) + m(a3, a3_19);
  t[2] = m(d0, a2) + m(a1, a1) + m(d3, a4_19);
  t[3] = m(d0, a3) + m(d1, a2) + m(a4, a4_19);
  t[4] = m(d0, a4) + m(d1, a3) + m(a2, a2);
  Fe r;
  fe_carry(r, t);
  return r;
}

Fe fe_mul_small(const Fe& a, u64 s) {
  u128 t[5];
  for (int i = 0; i < 5; ++i) t[i] = static_cast<u128>(a.v[i]) * s;
  Fe r;
  fe_carry(r, t);
  return r;
}

// a^(p-2) mod p via the standard addition chain.
Fe fe_invert(const Fe& z) {
  Fe z2 = fe_sq(z);                       // 2
  Fe z8 = fe_sq(fe_sq(z2));               // 8
  Fe z9 = fe_mul(z8, z);                  // 9
  Fe z11 = fe_mul(z9, z2);                // 11
  Fe z22 = fe_sq(z11);                    // 22
  Fe z_5_0 = fe_mul(z22, z9);             // 2^5 - 2^0
  Fe t = z_5_0;
  for (int i = 0; i < 5; ++i) t = fe_sq(t);
  Fe z_10_0 = fe_mul(t, z_5_0);           // 2^10 - 2^0
  t = z_10_0;
  for (int i = 0; i < 10; ++i) t = fe_sq(t);
  Fe z_20_0 = fe_mul(t, z_10_0);          // 2^20 - 2^0
  t = z_20_0;
  for (int i = 0; i < 20; ++i) t = fe_sq(t);
  Fe z_40_0 = fe_mul(t, z_20_0);          // 2^40 - 2^0
  t = z_40_0;
  for (int i = 0; i < 10; ++i) t = fe_sq(t);
  Fe z_50_0 = fe_mul(t, z_10_0);          // 2^50 - 2^0
  t = z_50_0;
  for (int i = 0; i < 50; ++i) t = fe_sq(t);
  Fe z_100_0 = fe_mul(t, z_50_0);         // 2^100 - 2^0
  t = z_100_0;
  for (int i = 0; i < 100; ++i) t = fe_sq(t);
  Fe z_200_0 = fe_mul(t, z_100_0);        // 2^200 - 2^0
  t = z_200_0;
  for (int i = 0; i < 50; ++i) t = fe_sq(t);
  Fe z_250_0 = fe_mul(t, z_50_0);         // 2^250 - 2^0
  t = z_250_0;
  for (int i = 0; i < 5; ++i) t = fe_sq(t);
  return fe_mul(t, z11);                  // 2^255 - 21 = p - 2
}

Fe fe_from_bytes(const X25519Key& s) {
  u64 w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = 0;
    for (int j = 7; j >= 0; --j) w[i] = (w[i] << 8) | s[8 * i + j];
  }
  Fe r;
  r.v[0] = w[0] & kMask51;
  r.v[1] = ((w[0] >> 51) | (w[1] << 13)) & kMask51;
  r.v[2] = ((w[1] >> 38) | (w[2] << 26)) & kMask51;
  r.v[3] = ((w[2] >> 25) | (w[3] << 39)) & kMask51;
  r.v[4] = (w[3] >> 12) & kMask51;  // top bit of the input is masked per RFC
  return r;
}

X25519Key fe_to_bytes(const Fe& a) {
  // Carry-propagate until every limb is below 2^51, so the value is in
  // [0, 2^255).
  Fe h = a;
  for (int pass = 0; pass < 3; ++pass) {
    u64 c = 0;
    for (int i = 0; i < 5; ++i) {
      h.v[i] += c;
      c = h.v[i] >> 51;
      h.v[i] &= kMask51;
    }
    h.v[0] += c * 19;
  }
  // v >= p iff v + 19 >= 2^255: add 19, propagate, and test bit 255. If set,
  // clearing it yields v - p (since v + 19 - 2^255 = v - p).
  Fe t = h;
  t.v[0] += 19;
  u64 c = 0;
  for (int i = 0; i < 5; ++i) {
    t.v[i] += c;
    c = t.v[i] >> 51;
    t.v[i] &= kMask51;
  }
  if (c != 0) {
    h = t;  // bit 255 was set and is dropped by the masking above
  }
  u64 w[4];
  w[0] = h.v[0] | (h.v[1] << 51);
  w[1] = (h.v[1] >> 13) | (h.v[2] << 38);
  w[2] = (h.v[2] >> 26) | (h.v[3] << 25);
  w[3] = (h.v[3] >> 39) | (h.v[4] << 12);
  X25519Key out;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 8; ++j) out[8 * i + j] = static_cast<u8>(w[i] >> (8 * j));
  return out;
}

void fe_cswap(Fe& a, Fe& b, u64 swap) {
  u64 mask = 0 - swap;
  for (int i = 0; i < 5; ++i) {
    u64 x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  X25519Key e = scalar;
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;

  Fe x1 = fe_from_bytes(point);
  Fe x2 = fe_one(), z2 = fe_zero();
  Fe x3 = x1, z3 = fe_one();
  u64 swap = 0;

  for (int t = 254; t >= 0; --t) {
    u64 bit = (e[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = bit;

    Fe a = fe_add(x2, z2);
    Fe aa = fe_sq(a);
    Fe b = fe_sub(x2, z2);
    Fe bb = fe_sq(b);
    Fe ee = fe_sub(aa, bb);
    Fe c = fe_add(x3, z3);
    Fe d = fe_sub(x3, z3);
    Fe da = fe_mul(d, a);
    Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(ee, fe_add(aa, fe_mul_small(ee, 121665)));
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);

  return fe_to_bytes(fe_mul(x2, fe_invert(z2)));
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base = {9};
  return x25519(scalar, base);
}

DhKeyPair dh_generate(Rng& rng) {
  DhKeyPair kp;
  rng.fill(MutByteSpan(kp.private_key.data(), kp.private_key.size()));
  kp.private_key[0] &= 248;
  kp.private_key[31] &= 127;
  kp.private_key[31] |= 64;
  kp.public_key = x25519_base(kp.private_key);
  return kp;
}

X25519Key dh_shared(const X25519Key& private_key,
                    const X25519Key& peer_public) {
  return x25519(private_key, peer_public);
}

}  // namespace kshot::crypto
