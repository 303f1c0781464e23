// Reusable circuit gadgets: in-circuit Poseidon and Merkle-path ascent.
// These replicate, constraint-for-constraint, the native implementations in
// src/hash and src/merkle, so a witness generated natively always satisfies
// the circuit (tested in test_zksnark.cpp).
//
// Every gadget is a template over the builder and is instantiated for both
// CircuitBuilder (constraints + witness) and WitnessBuilder (witness only),
// so the two modes run one piece of code and cannot drift apart.
#pragma once

#include <span>
#include <vector>

#include "merkle/merkle_tree.hpp"
#include "zksnark/circuit.hpp"

namespace waku::zksnark {

/// In-circuit x^5 S-box (3 constraints).
template <class B>
WireOf<B> sbox_gadget(B& b, const WireOf<B>& x);

/// In-circuit Poseidon permutation over `state` (t = state.size() <= 5).
template <class B>
void poseidon_permute_gadget(B& b, std::vector<WireOf<B>>& state);

/// In-circuit Poseidon hash with the same sponge convention as
/// hash::poseidon_hash (capacity 0, output state[0]).
template <class B>
WireOf<B> poseidon_gadget(B& b, std::span<const WireOf<B>> inputs);

template <class B>
WireOf<B> poseidon1_gadget(B& b, const WireOf<B>& a);
template <class B>
WireOf<B> poseidon2_gadget(B& b, const WireOf<B>& a, const WireOf<B>& c);

/// In-circuit Merkle root computation from a leaf and its auth path.
/// Allocates the path siblings and index bits as private witnesses and
/// returns the computed root wire. `path` supplies the witness values.
template <class B>
WireOf<B> merkle_root_gadget(B& b, const WireOf<B>& leaf,
                             const merkle::MerklePath& path);

/// Decomposes `value` (whose witness must fit in `bits` bits) into bit
/// wires, least significant first, constraining booleanity and the
/// recomposition. The canonical range check: value < 2^bits.
template <class B>
std::vector<WireOf<B>> bits_gadget(B& b, const WireOf<B>& value,
                                   std::size_t bits);

/// Asserts a < b where both (witness values) fit in `bits` bits
/// (the circomlib LessThan construction used by RLN-v2's rate limit).
template <class B>
void assert_less_than(B& b, const WireOf<B>& a, const WireOf<B>& b_bound,
                      std::size_t bits);

}  // namespace waku::zksnark
