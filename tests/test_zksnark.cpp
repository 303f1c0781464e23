// Tests for the R1CS layer, circuit gadgets, the RLN circuit, and the
// simulated Groth16 backend: completeness, soundness against tampering,
// and the structural properties the benches rely on.
#include <gtest/gtest.h>

#include <memory>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "sss/shamir.hpp"
#include "zksnark/gadgets.hpp"
#include "zksnark/rln_circuit.hpp"

namespace waku::zksnark {
namespace {

using ff::Fr;
using merkle::IncrementalMerkleTree;
using merkle::MerklePath;

TEST(LinearCombination, EvaluatesTerms) {
  // assignment: [1, 10, 20]
  const std::vector<Fr> s = {Fr::one(), Fr::from_u64(10), Fr::from_u64(20)};
  LinearCombination lc;
  lc.add_term(1, Fr::from_u64(2));
  lc.add_term(2, Fr::from_u64(3));
  lc.add_term(0, Fr::from_u64(5));
  EXPECT_EQ(lc.evaluate(s), Fr::from_u64(2 * 10 + 3 * 20 + 5));
}

TEST(LinearCombination, MergesDuplicateTerms) {
  LinearCombination lc;
  lc.add_term(3, Fr::from_u64(2));
  lc.add_term(3, Fr::from_u64(5));
  ASSERT_EQ(lc.terms().size(), 1u);
  EXPECT_EQ(lc.terms()[0].second, Fr::from_u64(7));
}

TEST(LinearCombination, CancellingTermsVanish) {
  LinearCombination lc;
  lc.add_term(2, Fr::from_u64(4));
  lc.add_term(2, Fr::from_u64(4).neg());
  EXPECT_TRUE(lc.empty());
}

TEST(LinearCombination, ArithmeticOps) {
  const std::vector<Fr> s = {Fr::one(), Fr::from_u64(3)};
  const auto a = LinearCombination::variable(1);
  const auto b = LinearCombination::constant(Fr::from_u64(10));
  EXPECT_EQ((a + b).evaluate(s), Fr::from_u64(13));
  EXPECT_EQ((b - a).evaluate(s), Fr::from_u64(7));
  EXPECT_EQ(a.scaled(Fr::from_u64(4)).evaluate(s), Fr::from_u64(12));
}

TEST(ConstraintSystem, PublicBeforePrivateEnforced) {
  ConstraintSystem cs;
  cs.allocate_public();
  cs.allocate_private();
  EXPECT_THROW(cs.allocate_public(), ContractViolation);
}

TEST(ConstraintSystem, SatisfactionCheck) {
  // x * y = z with x=3, y=4, z=12.
  ConstraintSystem cs;
  const VarIndex x = cs.allocate_public();
  const VarIndex y = cs.allocate_private();
  const VarIndex z = cs.allocate_private();
  cs.enforce(LinearCombination::variable(x), LinearCombination::variable(y),
             LinearCombination::variable(z), "xy=z");

  const std::vector<Fr> good = {Fr::one(), Fr::from_u64(3), Fr::from_u64(4),
                                Fr::from_u64(12)};
  EXPECT_TRUE(cs.is_satisfied(good));

  const std::vector<Fr> bad = {Fr::one(), Fr::from_u64(3), Fr::from_u64(4),
                               Fr::from_u64(13)};
  std::string where;
  EXPECT_FALSE(cs.is_satisfied(bad, &where));
  EXPECT_EQ(where, "xy=z");
}

TEST(ConstraintSystem, RejectsMalformedAssignment) {
  ConstraintSystem cs;
  cs.allocate_public();
  const std::vector<Fr> wrong_one = {Fr::from_u64(2), Fr::one()};
  EXPECT_FALSE(cs.is_satisfied(wrong_one));
  const std::vector<Fr> wrong_size = {Fr::one()};
  EXPECT_FALSE(cs.is_satisfied(wrong_size));
}

TEST(ConstraintSystem, DigestDistinguishesCircuits) {
  EXPECT_NE(rln_constraint_system(4).digest(),
            rln_constraint_system(5).digest());
  EXPECT_EQ(rln_constraint_system(4).digest(),
            rln_constraint_system(4).digest());
}

TEST(ConstraintSystem, DigestMemoResetsOnEnforce) {
  // Two systems built the same way: x * y = z, then a second constraint.
  const auto build = [](ConstraintSystem& cs, bool second) {
    const VarIndex x = cs.allocate_public();
    const VarIndex y = cs.allocate_private();
    const VarIndex z = cs.allocate_private();
    cs.enforce(LinearCombination::variable(x), LinearCombination::variable(y),
               LinearCombination::variable(z), "xy=z");
    if (second) {
      cs.enforce(LinearCombination::variable(z),
                 LinearCombination::constant(Fr::one()),
                 LinearCombination::variable(z), "z=z");
    }
  };
  ConstraintSystem cs;
  build(cs, /*second=*/false);
  const Fr before = cs.digest();
  EXPECT_EQ(cs.digest(), before);  // served from the memo
  cs.enforce(LinearCombination::variable(3),
             LinearCombination::constant(Fr::one()),
             LinearCombination::variable(3), "z=z");
  const Fr after = cs.digest();
  EXPECT_NE(after, before);
  ConstraintSystem fresh;
  build(fresh, /*second=*/true);
  EXPECT_EQ(after, fresh.digest());

  // Allocating a variable changes the structure too.
  (void)cs.allocate_private();
  EXPECT_NE(cs.digest(), after);
}

TEST(CircuitBuilder, MulAddsOneConstraint) {
  CircuitBuilder b;
  const Wire x = b.witness(Fr::from_u64(6));
  const Wire y = b.witness(Fr::from_u64(7));
  const Wire z = b.mul(x, y);
  EXPECT_EQ(z.value, Fr::from_u64(42));
  EXPECT_EQ(b.cs().num_constraints(), 1u);
  EXPECT_TRUE(b.satisfied());
}

TEST(CircuitBuilder, LinearOpsAddNoConstraints) {
  CircuitBuilder b;
  const Wire x = b.witness(Fr::from_u64(6));
  const Wire y = b.witness(Fr::from_u64(7));
  const Wire s = CircuitBuilder::add(x, y);
  const Wire d = CircuitBuilder::sub(x, y);
  const Wire k = CircuitBuilder::scale(x, Fr::from_u64(3));
  EXPECT_EQ(s.value, Fr::from_u64(13));
  EXPECT_EQ(d.value, Fr::from_u64(6) - Fr::from_u64(7));
  EXPECT_EQ(k.value, Fr::from_u64(18));
  EXPECT_EQ(b.cs().num_constraints(), 0u);
}

TEST(CircuitBuilder, AssertBooleanAcceptsBits) {
  CircuitBuilder b;
  b.assert_boolean(b.witness(Fr::zero()));
  b.assert_boolean(b.witness(Fr::one()));
  EXPECT_TRUE(b.satisfied());
}

TEST(CircuitBuilder, AssertBooleanRejectsNonBits) {
  CircuitBuilder b;
  b.assert_boolean(b.witness(Fr::from_u64(2)));
  EXPECT_FALSE(b.satisfied());
}

TEST(CircuitBuilder, ConditionalSwap) {
  CircuitBuilder b;
  const Wire l = b.witness(Fr::from_u64(10));
  const Wire r = b.witness(Fr::from_u64(20));
  const auto [a0, b0] = b.conditional_swap(b.witness(Fr::zero()), l, r);
  EXPECT_EQ(a0.value, Fr::from_u64(10));
  EXPECT_EQ(b0.value, Fr::from_u64(20));
  const auto [a1, b1] = b.conditional_swap(b.witness(Fr::one()), l, r);
  EXPECT_EQ(a1.value, Fr::from_u64(20));
  EXPECT_EQ(b1.value, Fr::from_u64(10));
  EXPECT_TRUE(b.satisfied());
}

TEST(Gadgets, PoseidonMatchesNative) {
  // The gadget evaluates the dense textbook rounds; the native hash runs the
  // sparse partial-round form, so this is the cross-check between the two.
  Rng rng(211);
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    for (int trial = 0; trial < 32; ++trial) {
      CircuitBuilder b;
      std::vector<Fr> values;
      std::vector<Wire> wires;
      for (std::size_t i = 0; i < arity; ++i) {
        values.push_back(Fr::random(rng));
        wires.push_back(b.witness(values.back()));
      }
      const Wire out = poseidon_gadget(b, wires);
      EXPECT_EQ(out.value, hash::poseidon_hash(values))
          << "arity " << arity << " trial " << trial;
      EXPECT_TRUE(b.satisfied()) << "arity " << arity << " trial " << trial;
    }
  }
}

TEST(Gadgets, PoseidonConstraintCountBounded) {
  // t=3: 8 full rounds * 3 sboxes * 3 + 57 partial * (3 + 2 materialize)
  CircuitBuilder b;
  const Wire x = b.witness(Fr::one());
  const Wire y = b.witness(Fr::from_u64(2));
  (void)poseidon2_gadget(b, x, y);
  EXPECT_LE(b.cs().num_constraints(), 400u);
  EXPECT_GE(b.cs().num_constraints(), 200u);
}

TEST(Gadgets, MerkleRootMatchesNative) {
  IncrementalMerkleTree tree(6);
  for (std::uint64_t i = 0; i < 9; ++i) tree.insert(Fr::from_u64(100 + i));
  for (std::uint64_t idx : {0u, 3u, 8u}) {
    const MerklePath path = tree.auth_path(idx);
    CircuitBuilder b;
    const Wire leaf = b.witness(Fr::from_u64(100 + idx));
    const Wire root = merkle_root_gadget(b, leaf, path);
    EXPECT_EQ(root.value, tree.root()) << "index " << idx;
    EXPECT_TRUE(b.satisfied());
  }
}

// --- RLN circuit ---

struct RlnFixture {
  IncrementalMerkleTree tree{8};
  Fr sk;
  std::uint64_t index = 0;

  explicit RlnFixture(std::uint64_t seed = 223) {
    Rng rng(seed);
    sk = Fr::random(rng);
    // Surround our member with others.
    tree.insert(Fr::random(rng));
    index = tree.insert(hash::poseidon1(sk));
    tree.insert(Fr::random(rng));
  }

  RlnProverInput prover_input(const Fr& x, const Fr& epoch) const {
    return RlnProverInput{sk, tree.auth_path(index), x, epoch};
  }
};

TEST(RlnCircuit, PublicsMatchSpec) {
  const RlnFixture fx;
  const Fr x = Fr::from_u64(42);
  const Fr epoch = Fr::from_u64(54827003);
  const RlnPublicInputs pub = rln_compute_publics(fx.prover_input(x, epoch));

  const Fr a1 = hash::poseidon2(fx.sk, epoch);
  EXPECT_EQ(pub.x, x);
  EXPECT_EQ(pub.y, fx.sk + a1 * x);
  EXPECT_EQ(pub.nullifier, hash::poseidon1(a1));
  EXPECT_EQ(pub.epoch, epoch);
  EXPECT_EQ(pub.root, fx.tree.root());
}

TEST(RlnCircuit, WitnessSatisfiesConstraints) {
  const RlnFixture fx;
  RlnCircuit c = build_rln_circuit(
      fx.prover_input(Fr::from_u64(7), Fr::from_u64(1000)));
  std::string violation;
  EXPECT_TRUE(c.builder.satisfied(&violation)) << violation;
}

TEST(RlnCircuit, TwoSharesFromCircuitRecoverSk) {
  // End-to-end RLN property at the circuit level: the public outputs of two
  // same-epoch proofs expose sk via Shamir recovery.
  const RlnFixture fx;
  const Fr epoch = Fr::from_u64(999);
  const auto p1 = rln_compute_publics(fx.prover_input(Fr::from_u64(11), epoch));
  const auto p2 = rln_compute_publics(fx.prover_input(Fr::from_u64(22), epoch));
  EXPECT_EQ(p1.nullifier, p2.nullifier);  // double-signal detection signal
  const Fr recovered = sss::rln_recover_secret(sss::Share{p1.x, p1.y},
                                               sss::Share{p2.x, p2.y});
  EXPECT_EQ(recovered, fx.sk);
}

TEST(RlnCircuit, DifferentEpochsGiveDifferentNullifiers) {
  const RlnFixture fx;
  const auto p1 =
      rln_compute_publics(fx.prover_input(Fr::from_u64(1), Fr::from_u64(10)));
  const auto p2 =
      rln_compute_publics(fx.prover_input(Fr::from_u64(1), Fr::from_u64(11)));
  EXPECT_NE(p1.nullifier, p2.nullifier);
}

TEST(RlnCircuit, ConstraintCountGrowsWithDepth) {
  const std::size_t c8 = rln_constraint_system(8).num_constraints();
  const std::size_t c16 = rln_constraint_system(16).num_constraints();
  const std::size_t c32 = rln_constraint_system(32).num_constraints();
  EXPECT_LT(c8, c16);
  EXPECT_LT(c16, c32);
  // Each level adds one Poseidon2 + swap + bit: roughly constant increment.
  const std::size_t inc1 = c16 - c8;
  const std::size_t inc2 = c32 - c16;
  EXPECT_EQ(inc1 / 8, inc2 / 16);
}

// --- Simulated Groth16 ---

class Groth16Rln : public ::testing::Test {
 protected:
  RlnFixture fx;
  const Keypair& kp = rln_keypair(8);

  Proof make_proof(const Fr& x, const Fr& epoch, RlnPublicInputs* pub,
                   std::uint64_t seed = 1) {
    RlnCircuit c = build_rln_circuit(fx.prover_input(x, epoch));
    if (pub) *pub = c.publics;
    Rng rng(seed);
    return prove(kp.pk, c.builder.cs(), c.builder.assignment(), rng);
  }
};

TEST_F(Groth16Rln, Completeness) {
  RlnPublicInputs pub;
  const Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  EXPECT_TRUE(verify(kp.vk, pub.to_vector(), proof));
}

TEST_F(Groth16Rln, RejectsTamperedPublicInputs) {
  RlnPublicInputs pub;
  const Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  for (int field = 0; field < 5; ++field) {
    auto inputs = pub.to_vector();
    inputs[static_cast<std::size_t>(field)] += Fr::one();
    EXPECT_FALSE(verify(kp.vk, inputs, proof)) << "field " << field;
  }
}

TEST_F(Groth16Rln, RejectsTamperedProof) {
  RlnPublicInputs pub;
  Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  proof.binding[0] ^= 1;
  EXPECT_FALSE(verify(kp.vk, pub.to_vector(), proof));
}

TEST_F(Groth16Rln, RejectsProofElementSwap) {
  RlnPublicInputs pub;
  Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  std::swap(proof.a, proof.b);
  EXPECT_FALSE(verify(kp.vk, pub.to_vector(), proof));
}

TEST_F(Groth16Rln, RejectsWrongInputCount) {
  RlnPublicInputs pub;
  const Proof proof = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  auto inputs = pub.to_vector();
  inputs.pop_back();
  EXPECT_FALSE(verify(kp.vk, inputs, proof));
}

TEST_F(Groth16Rln, RejectsGarbageProof) {
  RlnPublicInputs pub;
  (void)make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub);
  Proof garbage;  // all zero
  EXPECT_FALSE(verify(kp.vk, pub.to_vector(), garbage));
}

TEST_F(Groth16Rln, ProofsAreRandomized) {
  RlnPublicInputs pub;
  const Proof p1 = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub, 1);
  const Proof p2 = make_proof(Fr::from_u64(5), Fr::from_u64(100), &pub, 2);
  EXPECT_NE(p1, p2);  // zero-knowledge: same statement, different proofs
  EXPECT_TRUE(verify(kp.vk, pub.to_vector(), p1));
  EXPECT_TRUE(verify(kp.vk, pub.to_vector(), p2));
}

TEST_F(Groth16Rln, ProveRejectsCorruptedWitness) {
  RlnCircuit c =
      build_rln_circuit(fx.prover_input(Fr::from_u64(5), Fr::from_u64(100)));
  std::vector<Fr> assignment(c.builder.assignment().begin(),
                             c.builder.assignment().end());
  assignment[6] += Fr::one();  // corrupt a witness variable
  Rng rng(3);
  EXPECT_THROW(prove(kp.pk, c.builder.cs(), assignment, rng), ProofError);
}

TEST_F(Groth16Rln, ProveRejectsMismatchedCircuit) {
  RlnCircuit c =
      build_rln_circuit(fx.prover_input(Fr::from_u64(5), Fr::from_u64(100)));
  const Keypair& other = rln_keypair(10);  // wrong depth
  Rng rng(4);
  EXPECT_THROW(
      prove(other.pk, c.builder.cs(), c.builder.assignment(), rng),
      ProofError);
}

TEST_F(Groth16Rln, NonMemberCannotProve) {
  // A prover whose pk is NOT in the tree fails witness generation: the
  // circuit's membership constraint is violated if they claim the root.
  Rng rng(229);
  const Fr outsider_sk = Fr::random(rng);
  // Forge a path: siblings from a tree that doesn't contain the outsider.
  RlnProverInput input{outsider_sk, fx.tree.auth_path(fx.index),
                       Fr::from_u64(5), Fr::from_u64(100)};
  // The honest publics computation yields a root != the real tree root.
  const RlnPublicInputs pub = rln_compute_publics(input);
  EXPECT_NE(pub.root, fx.tree.root());
}

// --- Fixed shape: values-only witness over the cached per-depth system ---

// A seeded random statement at `depth`: the values-only path must agree
// with the full builder on every variable, on the digest and on the proof.
RlnProverInput random_statement(std::size_t depth, std::uint64_t seed) {
  Rng rng(seed);
  RlnProverInput input;
  input.sk = Fr::random(rng);
  input.path.index = rng.next_u64() & ((std::uint64_t{1} << depth) - 1);
  for (std::size_t l = 0; l < depth; ++l) {
    input.path.siblings.push_back(Fr::random(rng));
  }
  input.x = Fr::random(rng);
  input.epoch = Fr::random(rng);
  return input;
}

class FixedShapeEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FixedShapeEquivalence, ValuesOnlyMatchesFullBuilder) {
  const std::size_t depth = GetParam();
  const Keypair& kp = rln_keypair(depth);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const RlnProverInput input = random_statement(depth, 1000 * depth + seed);
    const RlnCircuit full = build_rln_circuit_full(input);
    const RlnCircuit fast = build_rln_circuit(input);
    EXPECT_EQ(fast.publics, full.publics);

    const auto a_full = full.builder.assignment();
    const auto a_fast = fast.builder.assignment();
    ASSERT_EQ(a_fast.size(), a_full.size());
    ASSERT_EQ(a_fast.size(), fast.builder.cs().num_variables());
    for (std::size_t i = 0; i < a_full.size(); ++i) {
      ASSERT_EQ(a_fast[i], a_full[i]) << "depth " << depth << " var " << i;
    }

    EXPECT_EQ(full.builder.cs().num_constraints(),
              fast.builder.cs().num_constraints());
    EXPECT_EQ(full.builder.cs().digest(), fast.builder.cs().digest());
    EXPECT_EQ(full.builder.cs().digest(), kp.pk.circuit_digest);

    // The runtime satisfiability check build_rln_circuit no longer repeats
    // (prove performs it) holds for the values-only witness.
    std::string violation;
    EXPECT_TRUE(fast.builder.satisfied(&violation)) << violation;

    Rng rng_full(seed);
    Rng rng_fast(seed);
    const Proof p_full =
        prove(kp.pk, full.builder.cs(), full.builder.assignment(), rng_full);
    const Proof p_fast =
        prove(kp.pk, fast.builder.cs(), fast.builder.assignment(), rng_fast);
    EXPECT_EQ(p_fast.serialize(), p_full.serialize());
    EXPECT_TRUE(verify(kp.vk, fast.publics.to_vector(), p_fast));
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, FixedShapeEquivalence,
                         ::testing::Values(1, 4, 20));

TEST(FixedShape, CircuitsOfOneDepthShareTheSystem) {
  const RlnCircuit a = build_rln_circuit(random_statement(5, 1));
  const RlnCircuit b = build_rln_circuit(random_statement(5, 2));
  EXPECT_EQ(&a.builder.cs(), &b.builder.cs());
  EXPECT_NE(&a.builder.cs(), &build_rln_circuit(random_statement(6, 1)).builder.cs());
}

TEST(FixedShape, FrozenBuilderTakesNoNewConstraints) {
  RlnCircuit c = build_rln_circuit(random_statement(3, 7));
  const std::size_t before = c.builder.cs().num_constraints();
  EXPECT_THROW((void)c.builder.witness(Fr::one()), ContractViolation);
  const Wire one = CircuitBuilder::constant(Fr::one());
  EXPECT_THROW(c.builder.assert_equal(one, one), ContractViolation);
  EXPECT_EQ(c.builder.cs().num_constraints(), before);
}

TEST(FixedShape, RejectsAssignmentOfTheWrongLength) {
  auto shape = std::make_shared<const ConstraintSystem>(rln_constraint_system(2));
  EXPECT_THROW(CircuitBuilder(shape, std::vector<Fr>(3, Fr::one())),
               ContractViolation);
}

constexpr const char* kPinnedDigestHex =
    "094c96e7574b167386e188444f5c69e71054531567e4c3be96a5ca1ba9c00b61";
constexpr const char* kPinnedProofHex =
    "8ecde80a60c379b7ba36d1b6f7478b587a2d164aceaa3a818996b60a332c4c1d"
    "4eadcabd60b7d593a08302d2da1e61ef5649743dfc8f4a18572c3eeda960a08c"
    "49a4f589dc46af0d1e7a9eee1dc7ae5e320e3b904738a3a57fd8beb98e9d389d"
    "8107d88cc95335ab87de38b11cf197a48040eae6e5949151b70eb53cad102215";

// The proof bytes for a fixed statement and RNG stream, recorded before the
// fixed-shape prover: the digest, the assignment and the RNG draws must all
// stay as they were, so the proof does too.
TEST(FixedShape, ProofBytesArePinned) {
  const RlnProverInput input = random_statement(4, 99);
  const RlnCircuit c = build_rln_circuit(input);
  Rng rng(5);
  const Proof proof = prove(rln_keypair(4).pk, c.builder.cs(),
                            c.builder.assignment(), rng);
  EXPECT_EQ(to_hex(c.builder.cs().digest().to_bytes_be()), kPinnedDigestHex);
  EXPECT_EQ(to_hex(proof.serialize()), kPinnedProofHex);
}

TEST(Groth16, ProofSerializationRoundTrip) {
  Rng rng(233);
  Proof p;
  const Bytes a = rng.next_bytes(32);
  std::copy(a.begin(), a.end(), p.a.begin());
  const Bytes bytes = p.serialize();
  ASSERT_EQ(bytes.size(), Proof::kSerializedSize);
  EXPECT_EQ(Proof::deserialize(bytes), p);
}

TEST(Groth16, DeserializeRejectsWrongSize) {
  EXPECT_THROW(Proof::deserialize(Bytes(127, 0)), ProofError);
  EXPECT_THROW(Proof::deserialize(Bytes(129, 0)), ProofError);
}

TEST(Groth16, ProvingKeySizeGrowsWithDepth) {
  const Keypair& k8 = rln_keypair(8);
  const Keypair& k16 = rln_keypair(16);
  EXPECT_GT(k16.pk.serialized_size(), k8.pk.serialized_size());
  // Verifying key stays small and constant-ish.
  EXPECT_EQ(k8.vk.serialized_size(), k16.vk.serialized_size());
  EXPECT_LT(k8.vk.serialized_size(), 1024u);
}

TEST(Groth16, ProvingKeySerializeMatchesReportedSize) {
  const Keypair& kp = rln_keypair(4);
  EXPECT_EQ(kp.pk.serialize().size(), kp.pk.serialized_size());
}

TEST(Groth16, KeypairDeterministicPerDepth) {
  const Keypair& a = rln_keypair(6);
  const Keypair& b = rln_keypair(6);
  EXPECT_EQ(&a, &b);  // cached
  EXPECT_EQ(a.pk.circuit_digest, rln_constraint_system(6).digest());
}

}  // namespace
}  // namespace waku::zksnark
