#include "zksnark/rln_circuit.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "hash/poseidon.hpp"
#include "zksnark/fixed_shape.hpp"
#include "zksnark/gadgets.hpp"

namespace waku::zksnark {

namespace {

// The RLN relation, written once for both builders. Returns the publics
// as the relation computes them: x and epoch as given, y, the nullifier
// and the root from the witness.
template <class B>
RlnPublicInputs synthesize_rln(B& b, const RlnProverInput& input,
                               const RlnPublicInputs& publics) {
  // Public inputs first (Groth16 variable layout).
  const WireOf<B> x = b.public_input(publics.x);
  const WireOf<B> y = b.public_input(publics.y);
  const WireOf<B> nullifier = b.public_input(publics.nullifier);
  const WireOf<B> epoch = b.public_input(publics.epoch);
  const WireOf<B> root = b.public_input(publics.root);

  // Private witness.
  const WireOf<B> sk = b.witness(input.sk);

  // (1) membership: pk = Poseidon(sk) sits in the tree under `root`.
  const WireOf<B> pk = poseidon1_gadget(b, sk);
  const WireOf<B> computed_root = merkle_root_gadget(b, pk, input.path);
  b.assert_equal(computed_root, root, "membership_root");

  // (2) share validity: y = sk + a1 * x, a1 = Poseidon(sk, epoch).
  const WireOf<B> a1 = poseidon2_gadget(b, sk, epoch);
  const WireOf<B> a1x = b.mul(a1, x, "share_slope_times_x");
  const WireOf<B> share = B::add(sk, a1x);
  b.assert_equal(share, y, "share_validity");

  // (3) nullifier correctness: phi = Poseidon(a1).
  const WireOf<B> phi = poseidon1_gadget(b, a1);
  b.assert_equal(phi, nullifier, "nullifier_correctness");

  return RlnPublicInputs{publics.x, share.value, phi.value, publics.epoch,
                         computed_root.value};
}

const FixedShape& rln_shape(std::size_t depth) {
  static FixedShapeCache cache(rln_constraint_system, 0x524c4e00);  // "RLN"
  return cache.at(depth);
}

}  // namespace

RlnPublicInputs rln_compute_publics(const RlnProverInput& input) {
  const Fr pk = hash::poseidon1(input.sk);
  const Fr a1 = hash::poseidon2(input.sk, input.epoch);
  RlnPublicInputs out;
  out.x = input.x;
  out.y = input.sk + a1 * input.x;
  out.nullifier = hash::poseidon1(a1);
  out.epoch = input.epoch;
  out.root = merkle::compute_root(pk, input.path);
  return out;
}

RlnCircuit build_rln_circuit(const RlnProverInput& input) {
  WAKU_EXPECTS(!input.path.siblings.empty());
  const FixedShape& shape = rln_shape(input.path.siblings.size());
  // y, the nullifier and the root are outputs of the relation. Rather than
  // hash them natively first (rln_compute_publics repeats every Poseidon
  // of the witness), their slots start empty, feed no other value, and
  // are filled from what the witness pass computed.
  WitnessBuilder b(shape.cs->num_variables());
  const RlnPublicInputs publics = synthesize_rln(
      b, input, RlnPublicInputs{input.x, {}, {}, input.epoch, {}});
  std::vector<Fr> assignment = std::move(b).take_assignment();
  const std::vector<Fr> values = publics.to_vector();
  std::copy(values.begin(), values.end(), assignment.begin() + 1);
  return RlnCircuit{CircuitBuilder(shape.cs, std::move(assignment)), publics};
}

RlnCircuit build_rln_circuit_full(const RlnProverInput& input) {
  WAKU_EXPECTS(!input.path.siblings.empty());
  RlnCircuit circuit;
  circuit.publics = rln_compute_publics(input);
  (void)synthesize_rln(circuit.builder, input, circuit.publics);
  return circuit;
}

ConstraintSystem rln_constraint_system(std::size_t depth) {
  WAKU_EXPECTS(depth >= 1);
  RlnProverInput dummy;
  dummy.sk = Fr::from_u64(1);
  dummy.path.index = 0;
  dummy.path.siblings.assign(depth, Fr::zero());
  dummy.x = Fr::from_u64(2);
  dummy.epoch = Fr::from_u64(3);
  const RlnCircuit circuit = build_rln_circuit_full(dummy);
  WAKU_ENSURES(circuit.builder.satisfied());
  return circuit.builder.cs();
}

const Keypair& rln_keypair(std::size_t depth) {
  return rln_shape(depth).keypair;
}

}  // namespace waku::zksnark
