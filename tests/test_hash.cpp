// Tests for SHA-256 / Keccak-256 against published vectors, and structural
// tests for Poseidon (whose constants are project-specific; see DESIGN.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "ff/fr.hpp"
#include "hash/keccak256.hpp"
#include "hash/poseidon.hpp"
#include "hash/schnorr.hpp"
#include "hash/sha256.hpp"
#include "merkle/merkle_tree.hpp"

namespace waku::hash {
namespace {

using ff::Fr;

std::string sha_hex(std::string_view msg) {
  return to_hex(sha256_bytes(to_bytes(msg)));
}

std::string keccak_hex(std::string_view msg) {
  return to_hex(keccak256_bytes(to_bytes(msg)));
}

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(sha_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(sha_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, FoxVector) {
  EXPECT_EQ(sha_hex("The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(61);
  const Bytes data = rng.next_bytes(1000);
  Sha256 h;
  // Feed in awkward chunk sizes crossing block boundaries.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 130u, 500u}) {
    const std::size_t take = std::min(chunk, data.size() - off);
    h.update(BytesView(data.data() + off, take));
    off += take;
  }
  h.update(BytesView(data.data() + off, data.size() - off));
  EXPECT_EQ(h.finalize(), sha256(data));
}

TEST(Sha256, LongInput) {
  const Bytes data(1'000'000, 'a');
  EXPECT_EQ(to_hex(sha256_bytes(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// --- Compression kernels, each driven directly: the portable kernel always,
// the SHA-NI kernel where this build and CPU have it. ---

constexpr detail::Sha256State kSha256Iv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                           0xa54ff53a, 0x510e527f, 0x9b05688c,
                                           0x1f83d9ab, 0x5be0cd19};

// FIPS 180-4 padding built by hand, then every block in one kernel call.
Sha256Digest sha256_with(detail::Sha256Compressor compress, BytesView data) {
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  detail::Sha256State state = kSha256Iv;
  compress(state, padded.data(), padded.size() / 64);
  Sha256Digest out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

void expect_published_vectors(detail::Sha256Compressor compress) {
  const std::pair<std::string_view, std::string_view> kVectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"The quick brown fox jumps over the lazy dog",
       "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"},
  };
  for (const auto& [msg, hex] : kVectors) {
    EXPECT_EQ(to_hex(sha256_with(compress, to_bytes(msg))), hex) << msg;
  }
  const Bytes million_a(1'000'000, 'a');
  EXPECT_EQ(to_hex(sha256_with(compress, million_a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Every length 0..1024 (all padding cases, one to seventeen blocks), then
// seeded random lengths up to 2 x 16 KiB, the largest relayed payload twice.
std::vector<Bytes> kernel_inputs() {
  Rng rng(0x5A256);
  std::vector<Bytes> inputs;
  for (std::size_t n = 0; n <= 1024; ++n) inputs.push_back(rng.next_bytes(n));
  for (int i = 0; i < 48; ++i) {
    inputs.push_back(rng.next_bytes(rng.next_below(2 * 16384 + 1)));
  }
  inputs.push_back(rng.next_bytes(2 * 16384));
  return inputs;
}

TEST(Sha256Kernels, PortableMatchesPublishedVectors) {
  expect_published_vectors(&detail::sha256_compress_portable);
}

TEST(Sha256Kernels, AcceleratedMatchesPublishedVectors) {
  const detail::Sha256Compressor accelerated = detail::sha256_accelerated_compressor();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "CPU or build lacks SHA-NI: accelerated kernel not run";
  }
  expect_published_vectors(accelerated);
}

TEST(Sha256Kernels, HasherMatchesPortableOnRandomInputs) {
  for (const Bytes& in : kernel_inputs()) {
    ASSERT_EQ(sha256(in), sha256_with(&detail::sha256_compress_portable, in))
        << "length " << in.size();
  }
}

TEST(Sha256Kernels, AcceleratedMatchesPortableOnRandomInputs) {
  const detail::Sha256Compressor accelerated = detail::sha256_accelerated_compressor();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "CPU or build lacks SHA-NI: accelerated kernel not run";
  }
  for (const Bytes& in : kernel_inputs()) {
    ASSERT_EQ(sha256_with(accelerated, in),
              sha256_with(&detail::sha256_compress_portable, in))
        << "length " << in.size();
  }
}

TEST(Sha256, UpdatesSplitAtRandomOffsetsMatchOneShot) {
  Rng rng(0x5EED);
  for (int trial = 0; trial < 32; ++trial) {
    const Bytes data = rng.next_bytes(rng.next_below(2 * 16384 + 1));
    Sha256 h;
    std::size_t off = 0;
    while (off < data.size()) {
      // Mostly sub-block pieces (zero-length ones included), some spanning
      // several blocks.
      const std::size_t piece = rng.next_below(4) == 0 ? rng.next_below(2048)
                                                       : rng.next_below(80);
      const std::size_t take = std::min(piece, data.size() - off);
      h.update(BytesView(data.data() + off, take));
      off += take;
    }
    ASSERT_EQ(h.finalize(), sha256(data)) << "trial " << trial;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(to_bytes("abc"));
  (void)h.finalize();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(to_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Keccak256, EmptyVector) {
  // keccak256("") — the ubiquitous Ethereum empty hash.
  EXPECT_EQ(keccak_hex(""),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256, AbcVector) {
  EXPECT_EQ(keccak_hex("abc"),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256, FoxVector) {
  EXPECT_EQ(keccak_hex("The quick brown fox jumps over the lazy dog"),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak256, RateBoundaryLengths) {
  // Exercise lengths around the 136-byte rate: all must be deterministic
  // and distinct.
  std::set<std::string> digests;
  for (std::size_t n : {135u, 136u, 137u, 271u, 272u, 273u}) {
    digests.insert(to_hex(keccak256_bytes(Bytes(n, 0x5a))));
  }
  EXPECT_EQ(digests.size(), 6u);
}

TEST(Keccak256, LeadingZeroBits) {
  Keccak256Digest d{};
  d.fill(0);
  EXPECT_EQ(leading_zero_bits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(d), 11);
}

TEST(Poseidon, ParamsShape) {
  for (std::size_t t = 2; t <= 5; ++t) {
    const PoseidonParams& p = poseidon_params(t);
    EXPECT_EQ(p.t, t);
    EXPECT_EQ(p.full_rounds, 8u);
    EXPECT_GE(p.partial_rounds, 56u);
    EXPECT_EQ(p.round_constants.size(), t * p.total_rounds());
    EXPECT_EQ(p.mds.size(), t * t);
  }
}

TEST(Poseidon, MdsMatrixInvertibleEntries) {
  // Cauchy construction guarantees non-zero entries.
  const PoseidonParams& p = poseidon_params(3);
  for (const Fr& e : p.mds) EXPECT_FALSE(e.is_zero());
}

TEST(Poseidon, Deterministic) {
  const Fr a = Fr::from_u64(1);
  const Fr b = Fr::from_u64(2);
  EXPECT_EQ(poseidon2(a, b), poseidon2(a, b));
}

TEST(Poseidon, OrderSensitive) {
  const Fr a = Fr::from_u64(1);
  const Fr b = Fr::from_u64(2);
  EXPECT_NE(poseidon2(a, b), poseidon2(b, a));
}

TEST(Poseidon, ArityDomainSeparation) {
  const Fr a = Fr::from_u64(7);
  EXPECT_NE(poseidon1(a), poseidon2(a, Fr::zero()));
}

TEST(Poseidon, PermutationIsNotIdentity) {
  std::vector<Fr> state = {Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)};
  const std::vector<Fr> before = state;
  poseidon_permute(state);
  EXPECT_NE(state, before);
}

TEST(Poseidon, PermutationIsBijectiveSmoke) {
  // Distinct inputs must map to distinct outputs (injectivity smoke test).
  std::set<std::string> outputs;
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::vector<Fr> state = {Fr::from_u64(i), Fr::zero()};
    poseidon_permute(state);
    outputs.insert(to_hex(state[0].to_bytes_be()));
  }
  EXPECT_EQ(outputs.size(), 64u);
}

TEST(Poseidon, CollisionSmoke) {
  Rng rng(71);
  std::set<std::string> seen;
  for (int i = 0; i < 256; ++i) {
    const Fr h = poseidon2(Fr::random(rng), Fr::random(rng));
    seen.insert(to_hex(h.to_bytes_be()));
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(Poseidon, AllAritiesSupported) {
  Rng rng(73);
  const Fr a = Fr::random(rng);
  const Fr b = Fr::random(rng);
  const Fr c = Fr::random(rng);
  const Fr d = Fr::random(rng);
  const std::array<Fr, 4> four{a, b, c, d};
  EXPECT_FALSE(poseidon1(a).is_zero());
  EXPECT_FALSE(poseidon2(a, b).is_zero());
  EXPECT_FALSE(poseidon3(a, b, c).is_zero());
  EXPECT_FALSE(poseidon_hash(four).is_zero());
}

TEST(Poseidon, RejectsUnsupportedArity) {
  const std::vector<Fr> empty;
  EXPECT_THROW(poseidon_hash(empty), ContractViolation);
  const std::vector<Fr> five(5, Fr::one());
  EXPECT_THROW(poseidon_hash(five), ContractViolation);
}

TEST(Poseidon, OutputsAreCanonicalFieldElements) {
  Rng rng(79);
  for (int i = 0; i < 50; ++i) {
    const Fr h = poseidon2(Fr::random(rng), Fr::random(rng));
    EXPECT_LT(h.to_u256(), Fr::kModulus);
  }
}

TEST(Poseidon, OutputsArePinned) {
  // Hex recorded from the dense textbook permutation (the full t x t MDS in
  // every round); the native evaluation must reproduce it bit for bit.
  const Fr a = Fr::from_u64(1);
  const Fr b = Fr::from_u64(2);
  const Fr c = Fr::from_u64(3);
  const Fr d = Fr::from_u64(4);
  const Fr top = Fr::zero() - Fr::one();  // r - 1
  const std::array<Fr, 4> four{a, b, c, d};
  EXPECT_EQ(ff::fr_to_hex(poseidon1(a)),
            "0x055777d607b219d487f6373fd7b3860672872d6001dd44d02752b354395afb7c");
  EXPECT_EQ(ff::fr_to_hex(poseidon2(a, b)),
            "0x15a0713c6cedd010e7fece66855cdfbec7619740c425f05872b946cda47d2429");
  EXPECT_EQ(ff::fr_to_hex(poseidon2(top, top)),
            "0x14e8298cc712528a59cdb39248c787c455f8872a988db9b226f4af95251e2f24");
  EXPECT_EQ(ff::fr_to_hex(poseidon3(a, b, c)),
            "0x154320371481c7324657f0ae01f30b392c4d575ddc002ce32a2a4fcec96f71e6");
  EXPECT_EQ(ff::fr_to_hex(poseidon_hash(four)),
            "0x075bb22321055cfd94d5bfca78f47d7a9c669968854c2d5194db3edc629677da");
  EXPECT_EQ(ff::fr_to_hex(merkle::zero_at(20)),
            "0x247a93a07c89dce11ea6f8e1b17df1acf14df31af8fef7c98dd945d0160c2c5d");
  merkle::IncrementalMerkleTree tree(20);
  for (std::uint64_t i = 0; i < 64; ++i) {
    tree.insert(poseidon1(Fr::from_u64(1000 + i)));
  }
  EXPECT_EQ(ff::fr_to_hex(tree.root()),
            "0x0a90c0caa5b3a96008195fab0022a0709fe1b03cddd6e6ee9dec059ff9698b97");
}

// -- Schnorr (checkpoint attestation scheme) ---------------------------------

TEST(Schnorr, SignVerifyRoundTrip) {
  Rng rng(0x5C40);
  const schnorr::KeyPair key = schnorr::keygen(rng);
  const Bytes msg = to_bytes("checkpoint payload");
  const schnorr::Signature sig = schnorr::sign(key, msg);
  EXPECT_TRUE(schnorr::verify(key.pk, msg, sig));
  // Deterministic nonces: the same (key, message) re-signs identically.
  EXPECT_EQ(schnorr::sign(key, msg), sig);
  // Serialization round-trips.
  EXPECT_EQ(schnorr::Signature::deserialize(sig.serialize()), sig);
}

TEST(Schnorr, RejectsWrongKeyMessageAndMalleation) {
  Rng rng(0x5C41);
  const schnorr::KeyPair key = schnorr::keygen(rng);
  const schnorr::KeyPair other = schnorr::keygen(rng);
  const Bytes msg = to_bytes("signed");
  const schnorr::Signature sig = schnorr::sign(key, msg);

  EXPECT_FALSE(schnorr::verify(other.pk, msg, sig));          // wrong key
  EXPECT_FALSE(schnorr::verify(key.pk, to_bytes("other"), sig));  // wrong msg
  schnorr::Signature bad = sig;
  bad.s.limb[0] ^= 1;
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));            // bent s
  bad = sig;
  bad.r = bad.r + Fr::one();
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));            // bent R
  // Out-of-range s (>= group order) is rejected outright, not reduced.
  bad = sig;
  bad.s = schnorr::kGroupOrder;
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));
  // Degenerate commitments/keys never verify.
  bad = sig;
  bad.r = Fr::zero();
  EXPECT_FALSE(schnorr::verify(key.pk, msg, bad));
  EXPECT_FALSE(schnorr::verify(Fr::zero(), msg, sig));
}

TEST(Schnorr, NoncesDifferAcrossMessagesUnderOneKey) {
  // Nonce reuse across distinct messages is the classic Schnorr key
  // recovery; the deterministic nonce is keccak(sk || m), so distinct
  // messages must yield distinct commitments.
  Rng rng(0x5C42);
  const schnorr::KeyPair key = schnorr::keygen(rng);
  std::set<Bytes> commitments;
  for (int i = 0; i < 20; ++i) {
    const schnorr::Signature sig =
        schnorr::sign(key, to_bytes("m" + std::to_string(i)));
    commitments.insert(sig.r.to_bytes_be());
  }
  EXPECT_EQ(commitments.size(), 20u);
}

TEST(Schnorr, ExponentArithmeticMatchesFieldSemantics) {
  // mul_mod / add_mod sanity against small values and against Fr (for the
  // prime modulus r, where both pipelines must agree).
  using ff::U256;
  const U256 seven{7}, three{3}, mod{11};
  EXPECT_EQ(ff::mul_mod(seven, three, mod), U256{10});  // 21 mod 11
  EXPECT_EQ(ff::add_mod(seven, three, mod), U256{10});
  Rng rng(0x5C43);
  for (int i = 0; i < 10; ++i) {
    const Fr a = Fr::random(rng);
    const Fr b = Fr::random(rng);
    EXPECT_EQ(ff::mul_mod(a.to_u256(), b.to_u256(), Fr::kModulus),
              (a * b).to_u256());
    EXPECT_EQ(ff::add_mod(a.to_u256(), b.to_u256(), Fr::kModulus),
              (a + b).to_u256());
  }
}

}  // namespace
}  // namespace waku::hash
