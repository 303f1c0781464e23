#include "ff/fr.hpp"

#include "common/expect.hpp"

namespace waku::ff {

namespace {

// -- Compile-time Montgomery constants ------------------------------------

// -r^{-1} mod 2^64 via Newton iteration: x_{k+1} = x_k * (2 - r*x_k).
// Six iterations double the correct low bits from 1 to 64.
constexpr std::uint64_t compute_inv() {
  const std::uint64_t r0 = Fr::kModulus.limb[0];
  std::uint64_t x = 1;
  for (int i = 0; i < 6; ++i) {
    x *= 2 - r0 * x;  // arithmetic is mod 2^64 by construction
  }
  return ~x + 1;  // negate
}

// 2^256 mod r, by doubling 1 modulo r 256 times.
constexpr U256 compute_r() {
  U256 x{1};
  for (int i = 0; i < 256; ++i) x = double_mod(x, Fr::kModulus);
  return x;
}

// 2^512 mod r.
constexpr U256 compute_r2() {
  U256 x = compute_r();
  for (int i = 0; i < 256; ++i) x = double_mod(x, Fr::kModulus);
  return x;
}

constexpr std::uint64_t kInv = compute_inv();
constexpr U256 kR = compute_r();
constexpr U256 kR2 = compute_r2();

static_assert(Fr::kModulus.limb[0] * compute_inv() == 0xffffffffffffffffULL,
              "Montgomery INV constant must satisfy r*(-r^-1) == -1 mod 2^64");

// -- Montgomery CIOS multiplication ----------------------------------------

// t = a*b*2^{-256} mod r. Textbook CIOS with a 6-limb accumulator.
U256 mont_mul(const U256& a, const U256& b) {
  std::uint64_t t[6] = {0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < 4; ++i) {
    // t += a * b[i]
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(t[j]) +
          static_cast<unsigned __int128>(a.limb[j]) * b.limb[i] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(t[4]) + carry;
      t[4] = static_cast<std::uint64_t>(cur);
      t[5] = static_cast<std::uint64_t>(cur >> 64);
    }
    // Reduce: add m*r where m = t[0]*inv mod 2^64, then shift one limb.
    const std::uint64_t m = t[0] * kInv;
    carry = (static_cast<unsigned __int128>(t[0]) +
             static_cast<unsigned __int128>(m) * Fr::kModulus.limb[0]) >>
            64;
    for (std::size_t j = 1; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(t[j]) +
          static_cast<unsigned __int128>(m) * Fr::kModulus.limb[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(t[4]) + carry;
      t[3] = static_cast<std::uint64_t>(cur);
      t[4] = t[5] + static_cast<std::uint64_t>(cur >> 64);
    }
  }
  U256 res{t[0], t[1], t[2], t[3]};
  if (t[4] != 0 || res >= Fr::kModulus) {
    bool borrow = false;
    res = sub_borrow(res, Fr::kModulus, borrow);
  }
  return res;
}

U256 add_mod(const U256& a, const U256& b) {
  bool carry = false;
  U256 r = add_carry(a, b, carry);
  if (carry || r >= Fr::kModulus) {
    bool borrow = false;
    r = sub_borrow(r, Fr::kModulus, borrow);
  }
  return r;
}

U256 sub_mod(const U256& a, const U256& b) {
  bool borrow = false;
  U256 r = sub_borrow(a, b, borrow);
  if (borrow) {
    bool carry = false;
    r = add_carry(r, Fr::kModulus, carry);
  }
  return r;
}

}  // namespace

Fr Fr::one() noexcept { return Fr{kR}; }  // 1 in Montgomery form is R mod r

Fr Fr::from_u64(std::uint64_t v) { return from_u256_reduce(U256{v}); }

Fr Fr::from_u256_reduce(const U256& v) {
  U256 canon = v;
  while (canon >= kModulus) {
    bool borrow = false;
    canon = sub_borrow(canon, kModulus, borrow);
  }
  Fr out;
  out.mont_ = mont_mul(canon, kR2);
  return out;
}

Fr Fr::from_u256_canonical(const U256& v) {
  WAKU_EXPECTS(v < kModulus);
  return from_u256_reduce(v);
}

Fr Fr::from_bytes_reduce(BytesView bytes) {
  WAKU_EXPECTS(bytes.size() <= 32);
  // Big-endian: the last byte is the least significant.
  U256 v;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t shift = 8 * (bytes.size() - 1 - i);
    v.limb[shift / 64] |= std::uint64_t{bytes[i]} << (shift % 64);
  }
  return from_u256_reduce(v);
}

Fr Fr::random(Rng& rng) {
  // Rejection-sample 254-bit values until one lands below r (p ~ 0.76).
  for (;;) {
    U256 v{rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
    v.limb[3] &= 0x3fffffffffffffffULL;  // clear top 2 bits -> 254-bit value
    if (v < kModulus) return from_u256_reduce(v);
  }
}

U256 Fr::to_u256() const { return mont_mul(mont_, U256{1}); }

Bytes Fr::to_bytes_be() const { return u256_to_bytes_be(to_u256()); }

Fr Fr::operator+(const Fr& o) const {
  Fr r;
  r.mont_ = add_mod(mont_, o.mont_);
  return r;
}

Fr Fr::operator-(const Fr& o) const {
  Fr r;
  r.mont_ = sub_mod(mont_, o.mont_);
  return r;
}

Fr Fr::operator*(const Fr& o) const {
  Fr r;
  r.mont_ = mont_mul(mont_, o.mont_);
  return r;
}

Fr Fr::neg() const {
  Fr r;
  r.mont_ = mont_.is_zero() ? U256{} : sub_mod(U256{}, mont_);
  return r;
}

Fr Fr::pow(const U256& e) const {
  Fr result = one();
  const int hb = e.highest_bit();
  for (int i = hb; i >= 0; --i) {
    result = result.square();
    if (e.bit(static_cast<unsigned>(i))) result = result * *this;
  }
  return result;
}

Fr Fr::inverse() const {
  WAKU_EXPECTS(!is_zero());
  bool borrow = false;
  const U256 e = sub_borrow(kModulus, U256{2}, borrow);  // r - 2
  return pow(e);
}

Fr fr_from_string(const std::string& s) {
  return Fr::from_u256_reduce(u256_from_string(s));
}

std::string fr_to_hex(const Fr& v) { return u256_to_hex(v.to_u256()); }

}  // namespace waku::ff
