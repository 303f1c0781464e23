// RLN-v2: per-member message quotas (extension).
//
// The paper fixes the rate at one message per epoch and notes the epoch
// length "should be configured to meet the desired messaging rate". The
// deployed successor (zerokit's RLN-v2) generalizes this: a member's leaf
// commits to a personal quota, leaf = Poseidon(pk, limit), and each message
// carries a private message_id with the in-circuit constraint
// 0 <= message_id < limit. The share slope and nullifier bind the id:
//
//   a1  = Poseidon(sk, external_nullifier, message_id)
//   y   = sk + a1 * x
//   phi = Poseidon(a1)
//
// Re-using a message_id within an epoch collides the nullifier and leaks
// sk exactly as in v1; distinct ids yield independent shares, so a member
// may send up to `limit` messages per epoch without penalty.
//
// Public inputs (canonical order): [x, y, phi, external_nullifier, root].
#pragma once

#include "merkle/merkle_tree.hpp"
#include "zksnark/circuit.hpp"
#include "zksnark/groth16.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::zksnark {

/// Bits allotted to quota values; limits must be < 2^kRlnV2LimitBits.
constexpr std::size_t kRlnV2LimitBits = 16;

struct RlnV2ProverInput {
  Fr sk;                    ///< identity secret key
  std::uint64_t limit = 1;  ///< quota committed in the leaf
  std::uint64_t message_id = 0;  ///< which of the `limit` slots this uses
  merkle::MerklePath path;  ///< auth path of the v2 leaf
  Fr x;                     ///< message hash
  Fr epoch;                 ///< external nullifier
};

/// The v2 leaf: Poseidon(pk, limit).
Fr rln_v2_leaf(const Fr& pk, std::uint64_t limit);

/// Honest public outputs for a prover input.
RlnPublicInputs rln_v2_compute_publics(const RlnV2ProverInput& input);

/// Computes the witness over the cached constraint system of the input's
/// tree depth (as build_rln_circuit does for v1); throws ContractViolation
/// if message_id does not fit the bit budget (an honest prover never hits
/// this; a cheating one cannot construct a witness at all).
RlnCircuit build_rln_v2_circuit(const RlnV2ProverInput& input);

/// Structure-only system for setup, parameterized by tree depth; checks
/// that its dummy witness satisfies it.
ConstraintSystem rln_v2_constraint_system(std::size_t depth);

/// Cached deterministic setup per depth (distinct from the v1 keypair).
const Keypair& rln_v2_keypair(std::size_t depth);

}  // namespace waku::zksnark
