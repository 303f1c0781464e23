// The RLN relation compiled to R1CS (paper §II-B, items 1-3):
//
//   1. membership: pk = Poseidon(sk) is a leaf of the identity commitment
//      tree with root tau (proved via the in-circuit Merkle ascent);
//   2. share validity: y = sk + a1 * x with a1 = Poseidon(sk, epoch);
//   3. nullifier correctness: phi = Poseidon(a1).
//
// Public inputs, in canonical order: [x, y, phi, epoch, root].
// Private witness: sk, the auth-path siblings and index bits.
#pragma once

#include <memory>

#include "merkle/merkle_tree.hpp"
#include "zksnark/circuit.hpp"
#include "zksnark/groth16.hpp"

namespace waku::zksnark {

/// The five public inputs of the RLN circuit.
struct RlnPublicInputs {
  Fr x;          ///< message hash H(m), the Shamir share x-coordinate
  Fr y;          ///< Shamir share y-coordinate
  Fr nullifier;  ///< internal nullifier phi
  Fr epoch;      ///< external nullifier (the epoch)
  Fr root;       ///< identity-commitment tree root tau

  [[nodiscard]] std::vector<Fr> to_vector() const {
    return {x, y, nullifier, epoch, root};
  }
  friend bool operator==(const RlnPublicInputs&,
                         const RlnPublicInputs&) = default;
};

/// Private prover inputs.
struct RlnProverInput {
  Fr sk;                    ///< identity secret key
  merkle::MerklePath path;  ///< auth path of pk in the commitment tree
  Fr x;                     ///< message hash
  Fr epoch;                 ///< current external nullifier
};

/// Computes the honest public outputs for a prover input (native, outside
/// the circuit): a1 = H(sk, epoch), y = sk + a1*x, phi = H(a1),
/// root = ascend(H(sk), path).
RlnPublicInputs rln_compute_publics(const RlnProverInput& input);

/// A fully built and witnessed RLN circuit.
struct RlnCircuit {
  CircuitBuilder builder;
  RlnPublicInputs publics;
};

/// Computes the witness for `input` over the cached constraint system of
/// its tree depth (built once per depth, see rln_keypair). The builder's
/// cs() is that shared system and its assignment is ready for groth16
/// `prove`, which checks that the assignment satisfies it.
RlnCircuit build_rln_circuit(const RlnProverInput& input);

/// Builds constraints and witness together for `input`, as the per-depth
/// system itself is built. Same assignment and digest as build_rln_circuit;
/// slower, and for setup and tests.
RlnCircuit build_rln_circuit_full(const RlnProverInput& input);

/// Builds the constraint structure for a given tree depth with a dummy
/// witness, and checks the witness satisfies it — used for trusted setup
/// (structure depends only on depth).
ConstraintSystem rln_constraint_system(std::size_t depth);

/// Cached trusted-setup artifact per tree depth (the ceremony output all
/// nodes share), kept with the depth's constraint system.
/// Deterministic for reproducibility of the benches.
const Keypair& rln_keypair(std::size_t depth);

}  // namespace waku::zksnark
