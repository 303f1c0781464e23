// Fr: the scalar field of BN254 (a.k.a. alt_bn128), the field Semaphore/RLN
// circuits are defined over.
//
//   r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
//
// Elements are kept in Montgomery form (x·2^256 mod r) so multiplication is
// a single CIOS pass. All Montgomery constants (R, R², -r⁻¹ mod 2^64) are
// computed at compile time from the modulus, which removes a whole class of
// hand-transcription bugs.
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

  Fr operator+(const Fr& o) const;
  Fr operator-(const Fr& o) const;
  Fr operator*(const Fr& o) const;
  Fr& operator+=(const Fr& o) { return *this = *this + o; }
  Fr& operator-=(const Fr& o) { return *this = *this - o; }
  Fr& operator*=(const Fr& o) { return *this = *this * o; }
  [[nodiscard]] Fr neg() const;
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

  U256 mont_{};  // value * 2^256 mod r
};

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
