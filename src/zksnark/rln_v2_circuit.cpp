#include "zksnark/rln_v2_circuit.hpp"

#include <array>

#include "common/expect.hpp"
#include "hash/poseidon.hpp"
#include "zksnark/fixed_shape.hpp"
#include "zksnark/gadgets.hpp"

namespace waku::zksnark {

namespace {

// The RLN-v2 relation, written once for both builders.
template <class B>
void synthesize_rln_v2(B& b, const RlnV2ProverInput& input,
                       const RlnPublicInputs& publics) {
  const WireOf<B> x = b.public_input(publics.x);
  const WireOf<B> y = b.public_input(publics.y);
  const WireOf<B> nullifier = b.public_input(publics.nullifier);
  const WireOf<B> epoch = b.public_input(publics.epoch);
  const WireOf<B> root = b.public_input(publics.root);

  const WireOf<B> sk = b.witness(input.sk);
  const WireOf<B> limit = b.witness(Fr::from_u64(input.limit));
  const WireOf<B> message_id = b.witness(Fr::from_u64(input.message_id));

  // Quota: 0 <= message_id < limit (both within the bit budget).
  (void)bits_gadget(b, message_id, kRlnV2LimitBits);
  (void)bits_gadget(b, limit, kRlnV2LimitBits);
  assert_less_than(b, message_id, limit, kRlnV2LimitBits);

  // Membership of the quota-committing leaf.
  const WireOf<B> pk = poseidon1_gadget(b, sk);
  const WireOf<B> leaf = poseidon2_gadget(b, pk, limit);
  const WireOf<B> computed_root = merkle_root_gadget(b, leaf, input.path);
  b.assert_equal(computed_root, root, "v2_membership_root");

  // Share validity with the id-bound slope.
  const std::array<WireOf<B>, 3> a1_in{sk, epoch, message_id};
  const WireOf<B> a1 = poseidon_gadget<B>(b, a1_in);
  const WireOf<B> a1x = b.mul(a1, x, "v2_share_slope_times_x");
  b.assert_equal(B::add(sk, a1x), y, "v2_share_validity");

  // Nullifier correctness.
  const WireOf<B> phi = poseidon1_gadget(b, a1);
  b.assert_equal(phi, nullifier, "v2_nullifier_correctness");
}

const FixedShape& rln_v2_shape(std::size_t depth) {
  static FixedShapeCache cache(rln_v2_constraint_system,
                               0x524c4e32);  // "RLN2"
  return cache.at(depth);
}

}  // namespace

Fr rln_v2_leaf(const Fr& pk, std::uint64_t limit) {
  return hash::poseidon2(pk, Fr::from_u64(limit));
}

RlnPublicInputs rln_v2_compute_publics(const RlnV2ProverInput& input) {
  const Fr pk = hash::poseidon1(input.sk);
  const Fr a1 = hash::poseidon3(input.sk, input.epoch,
                                Fr::from_u64(input.message_id));
  RlnPublicInputs out;
  out.x = input.x;
  out.y = input.sk + a1 * input.x;
  out.nullifier = hash::poseidon1(a1);
  out.epoch = input.epoch;
  out.root = merkle::compute_root(rln_v2_leaf(pk, input.limit), input.path);
  return out;
}

RlnCircuit build_rln_v2_circuit(const RlnV2ProverInput& input) {
  WAKU_EXPECTS(!input.path.siblings.empty());
  WAKU_EXPECTS(input.limit >= 1 &&
               input.limit < (std::uint64_t{1} << kRlnV2LimitBits));
  const FixedShape& shape = rln_v2_shape(input.path.siblings.size());
  RlnPublicInputs publics = rln_v2_compute_publics(input);
  WitnessBuilder b(shape.cs->num_variables());
  synthesize_rln_v2(b, input, publics);
  // Unlike v1, an over-quota message_id is representable here and simply
  // leaves the less-than constraint violated; prove() will refuse it.
  // Callers can inspect builder.satisfied() to see which constraint fails.
  return RlnCircuit{CircuitBuilder(shape.cs, std::move(b).take_assignment()),
                    publics};
}

ConstraintSystem rln_v2_constraint_system(std::size_t depth) {
  WAKU_EXPECTS(depth >= 1);
  RlnV2ProverInput dummy;
  dummy.sk = Fr::from_u64(1);
  dummy.limit = 1;
  dummy.message_id = 0;
  dummy.path.index = 0;
  dummy.path.siblings.assign(depth, Fr::zero());
  dummy.x = Fr::from_u64(2);
  dummy.epoch = Fr::from_u64(3);
  CircuitBuilder b;
  synthesize_rln_v2(b, dummy, rln_v2_compute_publics(dummy));
  WAKU_ENSURES(b.satisfied());
  return b.cs();
}

const Keypair& rln_v2_keypair(std::size_t depth) {
  return rln_v2_shape(depth).keypair;
}

}  // namespace waku::zksnark
