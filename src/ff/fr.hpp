// Fr: the scalar field of BN254 (a.k.a. alt_bn128), the field Semaphore/RLN
// circuits are defined over.
//
//   r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
//
// Elements are kept in Montgomery form (x·2^256 mod r) so multiplication is
// a single CIOS pass. All Montgomery constants (R, R², -r⁻¹ mod 2^64) are
// computed at compile time from the modulus, which removes a whole class of
// hand-transcription bugs.
//
// `+`, `-` and `*` are inline: they are the inner loop of every Poseidon
// hash. Add and sub do one conditional subtract/add of r, selected by mask.
// `*` is a fully unrolled 4-limb CIOS Montgomery product in plain
// `unsigned __int128`. It keeps a 4-limb accumulator plus one transient
// carry limb instead of the textbook six, which is sound only because
// r < 2^254 (static_assert below): the running value stays below 2r < 2^255
// and each round's a·b_i + m·r fits in 320 bits. Precondition for every
// kernel: both operands are canonical Montgomery limbs (< r), which every
// Fr holds by construction.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "ff/u256.hpp"

namespace waku::ff {

class Fr {
 public:
  /// The BN254 scalar field modulus r.
  static constexpr U256 kModulus{0x43e1f593f0000001ULL, 0x2833e84879b97091ULL,
                                 0xb85045b68181585dULL, 0x30644e72e131a029ULL};

  constexpr Fr() = default;

  static Fr zero() noexcept { return Fr{}; }
  static Fr one() noexcept;

  /// Lifts a machine word into the field.
  static Fr from_u64(std::uint64_t v);

  /// Reduces an arbitrary 256-bit value modulo r (used for hash-to-field).
  static Fr from_u256_reduce(const U256& v);

  /// Parses a canonical (already < r) value; throws if v >= r.
  static Fr from_u256_canonical(const U256& v);

  /// Reduces arbitrary bytes (big-endian, any length <= 32) into the field.
  static Fr from_bytes_reduce(BytesView bytes);

  /// Uniform random field element via rejection sampling on 254-bit draws.
  static Fr random(Rng& rng);

  /// Canonical value in [0, r).
  [[nodiscard]] U256 to_u256() const;

  /// Canonical 32-byte big-endian serialization.
  [[nodiscard]] Bytes to_bytes_be() const;

  /// Montgomery form maps 0 to 0 and every operation keeps mont_ < r, so
  /// no conversion is needed.
  [[nodiscard]] bool is_zero() const { return mont_.is_zero(); }

  Fr operator+(const Fr& o) const { return Fr{add_kernel(mont_, o.mont_)}; }
  Fr operator-(const Fr& o) const { return Fr{sub_kernel(mont_, o.mont_)}; }
  Fr operator*(const Fr& o) const {
    return Fr{mont_mul_kernel(mont_, o.mont_)};
  }
  Fr& operator+=(const Fr& o) { return *this = *this + o; }
  Fr& operator-=(const Fr& o) { return *this = *this - o; }
  Fr& operator*=(const Fr& o) { return *this = *this * o; }
  [[nodiscard]] Fr neg() const { return Fr{} - *this; }
  [[nodiscard]] Fr square() const { return *this * *this; }

  /// Exponentiation by a 256-bit exponent (square-and-multiply).
  [[nodiscard]] Fr pow(const U256& e) const;
  [[nodiscard]] Fr pow(std::uint64_t e) const { return pow(U256{e}); }

  /// Multiplicative inverse via Fermat's little theorem; requires non-zero.
  [[nodiscard]] Fr inverse() const;

  friend bool operator==(const Fr& a, const Fr& b) {
    return a.mont_ == b.mont_;
  }
  friend bool operator!=(const Fr& a, const Fr& b) { return !(a == b); }

  /// Raw Montgomery representation (for hashing into containers).
  [[nodiscard]] const U256& mont_repr() const { return mont_; }

 private:
  explicit constexpr Fr(const U256& mont) : mont_(mont) {}

  static U256 add_kernel(const U256& a, const U256& b);
  static U256 sub_kernel(const U256& a, const U256& b);
  static U256 mont_mul_kernel(const U256& a, const U256& b);

  U256 mont_{};  // value * 2^256 mod r
};

static_assert(Fr::kModulus.limb[3] < (std::uint64_t{1} << 62),
              "the 4-limb kernels need r < 2^254");

// -- Inline field kernels ---------------------------------------------------

namespace fr_detail {

using u128 = unsigned __int128;

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

inline constexpr std::uint64_t kInv = compute_inv();

static_assert(Fr::kModulus.limb[0] * kInv == 0xffffffffffffffffULL,
              "Montgomery INV constant must satisfy r*(-r^-1) == -1 mod 2^64");

// lo(a*b + c + carry), carry <- hi(...). Never overflows: the maximum is
// (2^64-1)^2 + 2(2^64-1) = 2^128 - 1.
inline std::uint64_t mac(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         std::uint64_t& carry) {
  const u128 p = static_cast<u128>(a) * b + c + carry;
  carry = static_cast<std::uint64_t>(p >> 64);
  return static_cast<std::uint64_t>(p);
}

// lo(a + b + carry), carry <- the carry-out bit.
inline std::uint64_t adc(std::uint64_t a, std::uint64_t b,
                         std::uint64_t& carry) {
  const u128 s = static_cast<u128>(a) + b + carry;
  carry = static_cast<std::uint64_t>(s >> 64);
  return static_cast<std::uint64_t>(s);
}

// lo(a - b - borrow), borrow <- the borrow-out bit.
inline std::uint64_t sbb(std::uint64_t a, std::uint64_t b,
                         std::uint64_t& borrow) {
  const u128 d = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  return static_cast<std::uint64_t>(d);
}

// x - r if x >= r, else x; requires x < 2r.
inline U256 reduce_once(const U256& x) {
  const U256& r = Fr::kModulus;
  std::uint64_t borrow = 0;
  const std::uint64_t d0 = sbb(x.limb[0], r.limb[0], borrow);
  const std::uint64_t d1 = sbb(x.limb[1], r.limb[1], borrow);
  const std::uint64_t d2 = sbb(x.limb[2], r.limb[2], borrow);
  const std::uint64_t d3 = sbb(x.limb[3], r.limb[3], borrow);
  const std::uint64_t keep = 0 - borrow;  // all ones iff x < r
  return U256{(x.limb[0] & keep) | (d0 & ~keep),
              (x.limb[1] & keep) | (d1 & ~keep),
              (x.limb[2] & keep) | (d2 & ~keep),
              (x.limb[3] & keep) | (d3 & ~keep)};
}

// One CIOS round: t <- (t + a*bi + m*r) / 2^64 with m chosen so the low limb
// cancels. Keeps t < 2r given t < 2r and a < r on entry.
inline void mont_round(std::uint64_t t[4], const U256& a, std::uint64_t bi) {
  const U256& r = Fr::kModulus;
  std::uint64_t c = 0;
  const std::uint64_t s0 = mac(a.limb[0], bi, t[0], c);
  const std::uint64_t s1 = mac(a.limb[1], bi, t[1], c);
  const std::uint64_t s2 = mac(a.limb[2], bi, t[2], c);
  const std::uint64_t s3 = mac(a.limb[3], bi, t[3], c);
  const std::uint64_t s4 = c;
  const std::uint64_t m = s0 * kInv;
  std::uint64_t d = 0;
  (void)mac(m, r.limb[0], s0, d);  // low limb is zero by choice of m
  t[0] = mac(m, r.limb[1], s1, d);
  t[1] = mac(m, r.limb[2], s2, d);
  t[2] = mac(m, r.limb[3], s3, d);
  t[3] = s4 + d;  // the shifted value is < 2r < 2^255: no carry out
}

}  // namespace fr_detail

inline U256 Fr::add_kernel(const U256& a, const U256& b) {
  // a + b < 2r < 2^255, so the 4-limb sum never carries out.
  std::uint64_t c = 0;
  const std::uint64_t s0 = fr_detail::adc(a.limb[0], b.limb[0], c);
  const std::uint64_t s1 = fr_detail::adc(a.limb[1], b.limb[1], c);
  const std::uint64_t s2 = fr_detail::adc(a.limb[2], b.limb[2], c);
  const std::uint64_t s3 = fr_detail::adc(a.limb[3], b.limb[3], c);
  return fr_detail::reduce_once(U256{s0, s1, s2, s3});
}

inline U256 Fr::sub_kernel(const U256& a, const U256& b) {
  std::uint64_t borrow = 0;
  const std::uint64_t d0 = fr_detail::sbb(a.limb[0], b.limb[0], borrow);
  const std::uint64_t d1 = fr_detail::sbb(a.limb[1], b.limb[1], borrow);
  const std::uint64_t d2 = fr_detail::sbb(a.limb[2], b.limb[2], borrow);
  const std::uint64_t d3 = fr_detail::sbb(a.limb[3], b.limb[3], borrow);
  const std::uint64_t mask = 0 - borrow;  // add r back iff a < b
  std::uint64_t c = 0;
  const std::uint64_t r0 = fr_detail::adc(d0, kModulus.limb[0] & mask, c);
  const std::uint64_t r1 = fr_detail::adc(d1, kModulus.limb[1] & mask, c);
  const std::uint64_t r2 = fr_detail::adc(d2, kModulus.limb[2] & mask, c);
  const std::uint64_t r3 = fr_detail::adc(d3, kModulus.limb[3] & mask, c);
  return U256{r0, r1, r2, r3};
}

inline U256 Fr::mont_mul_kernel(const U256& a, const U256& b) {
  std::uint64_t t[4] = {0, 0, 0, 0};
  fr_detail::mont_round(t, a, b.limb[0]);
  fr_detail::mont_round(t, a, b.limb[1]);
  fr_detail::mont_round(t, a, b.limb[2]);
  fr_detail::mont_round(t, a, b.limb[3]);
  return fr_detail::reduce_once(U256{t[0], t[1], t[2], t[3]});
}

/// Functor so Fr can key unordered containers (e.g. the nullifier log).
struct FrHash {
  std::size_t operator()(const Fr& v) const noexcept {
    return U256Hash{}(v.mont_repr());
  }
};

/// Convenience: decimal/hex string to field element (reduces mod r).
Fr fr_from_string(const std::string& s);

/// Canonical decimal-ish debug form (hex of canonical value).
std::string fr_to_hex(const Fr& v);

}  // namespace waku::ff
