// Poseidon permutation and hash over the BN254 scalar field.
//
// This is the hash the paper's "H" refers to inside the RLN relation:
// identity commitments pk = H(sk), the Merkle tree levels, the share slope
// a1 = H(sk, epoch), and the internal nullifier phi = H(a1) are all Poseidon
// evaluations, matching the Semaphore/RLN circuits.
//
// Structure follows the Poseidon reference for BN254 (x^5 S-box, 8 full
// rounds, 56..60 partial rounds depending on width, secure Cauchy MDS).
// SUBSTITUTION (documented in DESIGN.md): round constants and the Cauchy
// generators are derived from a SHA-256-based nothing-up-my-sleeve PRF
// instead of the reference Grain-LFSR stream; the algebraic structure is
// identical and no benchmark or protocol behaviour depends on the
// particular constant stream.
//
// Two evaluations of the same permutation exist. The R1CS gadget
// (zksnark/gadgets.cpp) runs the dense textbook rounds from PoseidonParams,
// so the circuit and its constraint count follow the definition directly.
// The native functions below run an equivalent form derived once per width
// (Poseidon paper, App. B): partial-round constants folded to one scalar
// per round and the partial-round MDS factored into sparse matrices, with
// the state on the stack. For t = 3 that is ~600 field multiplications per
// hash instead of ~830; outputs are bit-identical, which test_hash pins and
// test_zksnark checks against the gadget.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ff/fr.hpp"

namespace waku::hash {

using ff::Fr;

/// Full parameter set for a Poseidon instance of width `t`.
struct PoseidonParams {
  std::size_t t = 0;            ///< state width (capacity 1 + rate t-1)
  std::size_t full_rounds = 0;  ///< R_F, split half before / half after
  std::size_t partial_rounds = 0;  ///< R_P
  /// Round constants, layout: round-major, t per round,
  /// size = t * (full_rounds + partial_rounds).
  std::vector<Fr> round_constants;
  /// t x t MDS matrix, row-major.
  std::vector<Fr> mds;

  [[nodiscard]] const Fr& rc(std::size_t round, std::size_t i) const {
    return round_constants[round * t + i];
  }
  [[nodiscard]] const Fr& m(std::size_t row, std::size_t col) const {
    return mds[row * t + col];
  }
  [[nodiscard]] std::size_t total_rounds() const {
    return full_rounds + partial_rounds;
  }
};

/// Returns the (cached) parameter set for width t in [2, 5].
const PoseidonParams& poseidon_params(std::size_t t);

/// Applies the Poseidon permutation in place; state.size() selects t in
/// [2, 5].
void poseidon_permute(std::span<Fr> state);

/// Fixed-length Poseidon hash of 1..4 field elements (width t = n+1,
/// capacity element initialized to zero, output is state[0]), matching the
/// circomlib convention used by Semaphore/RLN.
Fr poseidon_hash(std::span<const Fr> inputs);

/// Conveniences for the common arities.
Fr poseidon1(const Fr& a);
Fr poseidon2(const Fr& a, const Fr& b);
Fr poseidon3(const Fr& a, const Fr& b, const Fr& c);

}  // namespace waku::hash
