// Tests for the RLN-v2 multi-message-rate extension and the range-check
// gadgets it relies on.
#include <gtest/gtest.h>

#include <set>

#include "common/expect.hpp"
#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "sss/shamir.hpp"
#include "zksnark/gadgets.hpp"
#include "zksnark/rln_v2_circuit.hpp"

namespace waku::zksnark {
namespace {

using ff::Fr;
using merkle::IncrementalMerkleTree;

TEST(RangeGadgets, BitsDecomposeAndRecompose) {
  for (const std::uint64_t v : {0ull, 1ull, 5ull, 255ull, 65535ull}) {
    CircuitBuilder b;
    const Wire w = b.witness(Fr::from_u64(v));
    const auto bits = bits_gadget(b, w, 16);
    ASSERT_EQ(bits.size(), 16u);
    EXPECT_TRUE(b.satisfied()) << "value " << v;
    std::uint64_t recomposed = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      recomposed |= (bits[i].value == Fr::one() ? 1ull : 0ull) << i;
    }
    EXPECT_EQ(recomposed, v);
  }
}

TEST(RangeGadgets, BitsRejectOutOfRangeWitness) {
  CircuitBuilder b;
  const Wire w = b.witness(Fr::from_u64(70'000));  // > 2^16
  EXPECT_THROW(bits_gadget(b, w, 16), ContractViolation);
}

TEST(RangeGadgets, LessThanAcceptsAndRejects) {
  const auto check = [](std::uint64_t a, std::uint64_t bound) {
    CircuitBuilder b;
    assert_less_than(b, b.witness(Fr::from_u64(a)),
                     b.witness(Fr::from_u64(bound)), 16);
    return b.satisfied();
  };
  EXPECT_TRUE(check(0, 1));
  EXPECT_TRUE(check(5, 10));
  EXPECT_TRUE(check(65534, 65535));
  EXPECT_FALSE(check(1, 1));
  EXPECT_FALSE(check(10, 5));
  EXPECT_FALSE(check(65535, 0));
}

struct V2Fixture {
  static constexpr std::size_t kDepth = 8;
  IncrementalMerkleTree tree{kDepth};
  Fr sk;
  std::uint64_t limit = 3;
  std::uint64_t index = 0;

  V2Fixture() {
    Rng rng(0x52563200);
    sk = Fr::random(rng);
    tree.insert(Fr::random(rng));
    index = tree.insert(rln_v2_leaf(hash::poseidon1(sk), limit));
    tree.insert(Fr::random(rng));
  }

  RlnV2ProverInput input(std::uint64_t message_id, const Fr& x,
                         std::uint64_t epoch) const {
    RlnV2ProverInput in;
    in.sk = sk;
    in.limit = limit;
    in.message_id = message_id;
    in.path = tree.auth_path(index);
    in.x = x;
    in.epoch = Fr::from_u64(epoch);
    return in;
  }
};

TEST(RlnV2Circuit, WitnessSatisfiesWithinQuota) {
  const V2Fixture fx;
  for (std::uint64_t id = 0; id < fx.limit; ++id) {
    RlnCircuit c = build_rln_v2_circuit(fx.input(id, Fr::from_u64(7), 100));
    std::string violation;
    EXPECT_TRUE(c.builder.satisfied(&violation)) << "id " << id << ": "
                                                 << violation;
    EXPECT_EQ(c.publics.root, fx.tree.root());
  }
}

TEST(RlnV2Circuit, ExceedingQuotaViolatesConstraints) {
  const V2Fixture fx;
  RlnCircuit c =
      build_rln_v2_circuit(fx.input(fx.limit, Fr::from_u64(7), 100));
  std::string violation;
  EXPECT_FALSE(c.builder.satisfied(&violation));
  EXPECT_EQ(violation, "less_than_top_bit");
}

TEST(RlnV2Circuit, DistinctMessageIdsGiveDistinctNullifiers) {
  const V2Fixture fx;
  std::set<std::string> nullifiers;
  for (std::uint64_t id = 0; id < fx.limit; ++id) {
    const auto pub = rln_v2_compute_publics(fx.input(id, Fr::from_u64(9), 55));
    nullifiers.insert(to_hex(pub.nullifier.to_bytes_be()));
  }
  EXPECT_EQ(nullifiers.size(), fx.limit);  // k independent slots per epoch
}

TEST(RlnV2Circuit, ReusedMessageIdLeaksSecretKey) {
  // Same epoch + same message_id -> same line -> two shares recover sk,
  // exactly the v1 slashing property, per quota slot.
  const V2Fixture fx;
  const auto p1 = rln_v2_compute_publics(fx.input(1, Fr::from_u64(11), 55));
  const auto p2 = rln_v2_compute_publics(fx.input(1, Fr::from_u64(22), 55));
  EXPECT_EQ(p1.nullifier, p2.nullifier);
  EXPECT_EQ(sss::rln_recover_secret(sss::Share{p1.x, p1.y},
                                    sss::Share{p2.x, p2.y}),
            fx.sk);
}

TEST(RlnV2Circuit, DifferentEpochsResetTheQuota) {
  const V2Fixture fx;
  const auto p1 = rln_v2_compute_publics(fx.input(0, Fr::from_u64(1), 55));
  const auto p2 = rln_v2_compute_publics(fx.input(0, Fr::from_u64(1), 56));
  EXPECT_NE(p1.nullifier, p2.nullifier);
}

TEST(RlnV2Circuit, WrongLimitBreaksMembership) {
  // Claiming a bigger quota than the leaf committed to changes the leaf
  // hash, so the membership constraint fails against the real root.
  const V2Fixture fx;
  RlnV2ProverInput cheat = fx.input(5, Fr::from_u64(7), 100);
  cheat.limit = 100;  // leaf committed limit=3
  const auto pub = rln_v2_compute_publics(cheat);
  EXPECT_NE(pub.root, fx.tree.root());  // cannot match the group root
}

TEST(RlnV2Circuit, Groth16EndToEnd) {
  const V2Fixture fx;
  const Keypair& kp = rln_v2_keypair(V2Fixture::kDepth);
  Rng rng(0x52563201);
  RlnCircuit c = build_rln_v2_circuit(fx.input(2, Fr::from_u64(31), 77));
  const Proof proof =
      prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng);
  EXPECT_TRUE(verify(kp.vk, c.publics.to_vector(), proof));

  auto tampered = c.publics.to_vector();
  tampered[1] += Fr::one();
  EXPECT_FALSE(verify(kp.vk, tampered, proof));
}

TEST(RlnV2Circuit, ProveRefusesOverQuotaWitness) {
  const V2Fixture fx;
  const Keypair& kp = rln_v2_keypair(V2Fixture::kDepth);
  Rng rng(0x52563202);
  RlnCircuit c =
      build_rln_v2_circuit(fx.input(fx.limit, Fr::from_u64(31), 77));
  EXPECT_THROW(prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng),
               ProofError);
}

// v2 computes its witness over the cached per-depth system too. The
// digest and proof bytes for a fixed statement and RNG stream were
// recorded with the constraints built per proof; they must not move.
TEST(RlnV2Circuit, ProofBytesArePinned) {
  Rng rng(77);
  RlnV2ProverInput in;
  in.sk = Fr::random(rng);
  in.limit = 5;
  in.message_id = 3;
  in.path.index = 6;
  for (int l = 0; l < 4; ++l) in.path.siblings.push_back(Fr::random(rng));
  in.x = Fr::random(rng);
  in.epoch = Fr::from_u64(31);
  const RlnCircuit c = build_rln_v2_circuit(in);
  EXPECT_TRUE(c.builder.satisfied());
  EXPECT_EQ(c.builder.cs().digest(), rln_v2_constraint_system(4).digest());
  Rng prove_rng(9);
  const Proof proof = prove(rln_v2_keypair(4).pk, c.builder.cs(),
                            c.builder.assignment(), prove_rng);
  EXPECT_EQ(to_hex(c.builder.cs().digest().to_bytes_be()),
            "11331bc77d67042d436acc54e75a26d708531e03c3689f8d9750e4c9ce9d3958");
  EXPECT_EQ(to_hex(proof.serialize()),
            "2552a742977e3ee7a3f8d9ebebc1fd207ea0abb00205458d1f007065995fb902"
            "4c8374b1d84695b0ee0a41006101502cf6302fba4715f57e05bd84ecf71396e6"
            "30e8b0916850a70564747212bdbe4eb208c0eaea31637e3ee372ed85d02fc044"
            "cb0f7eeb9ac15a6cc0bc4c1f39941046473d7cd731bb41d7886b8ba501829ac6");
}

TEST(RlnV2Circuit, V1AndV2KeypairsAreDistinct) {
  EXPECT_NE(rln_keypair(8).pk.circuit_digest,
            rln_v2_keypair(8).pk.circuit_digest);
}

TEST(RlnV2Circuit, ConstraintOverheadIsModest) {
  // The quota machinery (two 16-bit decompositions + comparison + one
  // extra Poseidon) should add well under 50% over v1 at equal depth.
  const std::size_t v1 = rln_constraint_system(8).num_constraints();
  const std::size_t v2 = rln_v2_constraint_system(8).num_constraints();
  EXPECT_GT(v2, v1);
  EXPECT_LT(v2, v1 * 3 / 2);
}

}  // namespace
}  // namespace waku::zksnark
