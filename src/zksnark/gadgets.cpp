#include "zksnark/gadgets.hpp"

#include <array>

#include "common/expect.hpp"
#include "hash/poseidon.hpp"

namespace waku::zksnark {

using hash::PoseidonParams;

namespace {
constexpr std::size_t kMaxPoseidonWidth = 5;  // hash::poseidon_params range
}  // namespace

template <class B>
WireOf<B> sbox_gadget(B& b, const WireOf<B>& x) {
  const WireOf<B> x2 = b.mul(x, x, "sbox_x2");
  const WireOf<B> x4 = b.mul(x2, x2, "sbox_x4");
  return b.mul(x4, x, "sbox_x5");
}

template <class B>
void poseidon_permute_gadget(B& b, std::vector<WireOf<B>>& state) {
  using W = WireOf<B>;
  const std::size_t t = state.size();
  WAKU_EXPECTS(t <= kMaxPoseidonWidth);
  const PoseidonParams& p = hash::poseidon_params(t);
  const std::size_t half_full = p.full_rounds / 2;

  std::array<W, kMaxPoseidonWidth> next;
  auto mix = [&](std::vector<W>& s) {
    for (std::size_t i = 0; i < t; ++i) {
      W acc = B::constant(Fr::zero());
      for (std::size_t j = 0; j < t; ++j) {
        acc = B::add(acc, B::scale(s[j], p.m(i, j)));
      }
      next[i] = std::move(acc);
    }
    for (std::size_t i = 0; i < t; ++i) s[i] = std::move(next[i]);
  };

  std::size_t round = 0;
  for (std::size_t r = 0; r < half_full; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      const W arc = B::add(state[i], B::constant(p.rc(round, i)));
      state[i] = sbox_gadget(b, arc);
    }
    mix(state);
  }
  for (std::size_t r = 0; r < p.partial_rounds; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      state[i] = B::add(state[i], B::constant(p.rc(round, i)));
    }
    state[0] = sbox_gadget(b, state[0]);
    // Materialize the linear lanes so combination sizes stay bounded across
    // the 56+ partial rounds (cost: t-1 constraints per round).
    for (std::size_t i = 1; i < t; ++i) {
      state[i] = b.materialize(state[i], "poseidon_partial_lane");
    }
    mix(state);
  }
  for (std::size_t r = 0; r < half_full; ++r, ++round) {
    for (std::size_t i = 0; i < t; ++i) {
      const W arc = B::add(state[i], B::constant(p.rc(round, i)));
      state[i] = sbox_gadget(b, arc);
    }
    mix(state);
  }
}

template <class B>
WireOf<B> poseidon_gadget(B& b, std::span<const WireOf<B>> inputs) {
  WAKU_EXPECTS(!inputs.empty() && inputs.size() <= 4);
  std::vector<WireOf<B>> state;
  state.reserve(inputs.size() + 1);
  state.push_back(B::constant(Fr::zero()));
  for (const WireOf<B>& w : inputs) state.push_back(w);
  poseidon_permute_gadget(b, state);
  return state[0];
}

template <class B>
WireOf<B> poseidon1_gadget(B& b, const WireOf<B>& a) {
  const std::array<WireOf<B>, 1> in{a};
  return poseidon_gadget<B>(b, in);
}

template <class B>
WireOf<B> poseidon2_gadget(B& b, const WireOf<B>& a, const WireOf<B>& c) {
  const std::array<WireOf<B>, 2> in{a, c};
  return poseidon_gadget<B>(b, in);
}

template <class B>
std::vector<WireOf<B>> bits_gadget(B& b, const WireOf<B>& value,
                                   std::size_t bits) {
  WAKU_EXPECTS(bits >= 1 && bits <= 64);
  // Witness values must fit: extract the low 64 bits of the canonical form.
  const std::uint64_t v = value.value.to_u256().limb[0];
  WAKU_EXPECTS(value.value.to_u256() == ff::U256{v});
  WAKU_EXPECTS(bits == 64 || v < (std::uint64_t{1} << bits));

  std::vector<WireOf<B>> out;
  out.reserve(bits);
  WireOf<B> sum = B::constant(Fr::zero());
  Fr weight = Fr::one();
  for (std::size_t i = 0; i < bits; ++i) {
    const WireOf<B> bit = b.witness(((v >> i) & 1) ? Fr::one() : Fr::zero());
    b.assert_boolean(bit, "range_bit");
    sum = B::add(sum, B::scale(bit, weight));
    weight += weight;
    out.push_back(bit);
  }
  b.assert_equal(sum, value, "range_recompose");
  return out;
}

template <class B>
void assert_less_than(B& b, const WireOf<B>& a, const WireOf<B>& b_bound,
                      std::size_t bits) {
  WAKU_EXPECTS(bits >= 1 && bits <= 62);
  // t = a + 2^bits - b; a < b  <=>  t < 2^bits  <=>  bit `bits` of t is 0.
  const WireOf<B> t =
      B::add(B::sub(a, b_bound),
             B::constant(Fr::from_u64(std::uint64_t{1} << bits)));
  const std::vector<WireOf<B>> t_bits = bits_gadget(b, t, bits + 1);
  b.assert_equal(t_bits[bits], B::constant(Fr::zero()), "less_than_top_bit");
}

template <class B>
WireOf<B> merkle_root_gadget(B& b, const WireOf<B>& leaf,
                             const merkle::MerklePath& path) {
  WireOf<B> cur = leaf;
  for (std::size_t l = 0; l < path.siblings.size(); ++l) {
    const bool bit_val = (path.index >> l) & 1;
    const WireOf<B> bit = b.witness(bit_val ? Fr::one() : Fr::zero());
    b.assert_boolean(bit, "merkle_index_bit");
    const WireOf<B> sibling = b.witness(path.siblings[l]);
    // bit == 0: cur is the left child; bit == 1: sibling is.
    const auto [left, right] = conditional_swap(b, bit, cur, sibling);
    cur = poseidon2_gadget(b, left, right);
  }
  return cur;
}

#define WAKU_INSTANTIATE_GADGETS(B)                                          \
  template WireOf<B> sbox_gadget<B>(B&, const WireOf<B>&);                   \
  template void poseidon_permute_gadget<B>(B&, std::vector<WireOf<B>>&);     \
  template WireOf<B> poseidon_gadget<B>(B&, std::span<const WireOf<B>>);     \
  template WireOf<B> poseidon1_gadget<B>(B&, const WireOf<B>&);              \
  template WireOf<B> poseidon2_gadget<B>(B&, const WireOf<B>&,               \
                                         const WireOf<B>&);                  \
  template WireOf<B> merkle_root_gadget<B>(B&, const WireOf<B>&,             \
                                           const merkle::MerklePath&);       \
  template std::vector<WireOf<B>> bits_gadget<B>(B&, const WireOf<B>&,       \
                                                 std::size_t);               \
  template void assert_less_than<B>(B&, const WireOf<B>&, const WireOf<B>&,  \
                                    std::size_t);

WAKU_INSTANTIATE_GADGETS(CircuitBuilder)
WAKU_INSTANTIATE_GADGETS(WitnessBuilder)

#undef WAKU_INSTANTIATE_GADGETS

}  // namespace waku::zksnark
