// Circuit builders, gadget-style. Linear operations are free (folded into
// linear combinations); each multiplication or materialization costs one
// constraint, mirroring how Semaphore/RLN circuits are written in circom.
//
// Two builders run the same gadget code (gadgets.hpp is templated on the
// builder):
//   * CircuitBuilder constructs R1CS constraints and the witness together.
//     A circuit whose structure depends only on a size parameter (the RLN
//     circuits, per tree depth) is built this way once, frozen, and shared.
//   * WitnessBuilder is the values-only mode: it computes just the witness
//     assignment, with no linear combinations, annotations or constraints.
//     Its assignment is wrapped back into a CircuitBuilder over the frozen
//     shape, so callers see one type either way.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "zksnark/r1cs.hpp"

namespace waku::zksnark {

/// A value flowing through the circuit: a linear combination over allocated
/// variables plus its concrete witness value.
struct Wire {
  LinearCombination lc;
  Fr value;
};

/// A value flowing through a values-only build: the witness value alone.
struct ValueWire {
  Fr value;
};

/// The wire type a builder's gadgets pass around.
template <class B>
using WireOf = typename B::WireType;

/// (s == 0) ? (l, r) : (r, l) — the Merkle path ordering switch, for either
/// builder. Costs one constraint; `s` must already be boolean-constrained.
template <class B>
std::pair<WireOf<B>, WireOf<B>> conditional_swap(B& b, const WireOf<B>& s,
                                                 const WireOf<B>& l,
                                                 const WireOf<B>& r) {
  // t = s * (r - l); first = l + t; second = r - t.
  const WireOf<B> t = b.mul(s, B::sub(r, l), "cond_swap");
  return {B::add(l, t), B::sub(r, t)};
}

class CircuitBuilder {
 public:
  using WireType = Wire;

  CircuitBuilder() { assignment_.push_back(Fr::one()); }

  /// Values-only result: `assignment` was computed by a WitnessBuilder for
  /// the circuit whose frozen constraint system is `shape`. The builder is
  /// read-only; `assignment` must have exactly one entry per variable of
  /// `shape`. Whether it satisfies `shape` is checked by `prove`.
  CircuitBuilder(std::shared_ptr<const ConstraintSystem> shape,
                 std::vector<Fr> assignment);

  /// Allocates a public input carrying `value`.
  Wire public_input(const Fr& value);

  /// Allocates a private witness variable carrying `value`.
  Wire witness(const Fr& value);

  /// The constant-one wire scaled by c.
  static Wire constant(const Fr& c);

  // Linear operations: no constraints added.
  static Wire add(const Wire& a, const Wire& b);
  static Wire sub(const Wire& a, const Wire& b);
  static Wire scale(const Wire& a, const Fr& k);

  /// a * b; allocates one product variable and one constraint.
  Wire mul(const Wire& a, const Wire& b, std::string_view note = {});

  /// Returns a single-variable wire equal to `a` (one constraint). Used to
  /// stop linear-combination growth in iterated constructions (Poseidon).
  Wire materialize(const Wire& a, std::string_view note = {});

  /// Enforces a == b (one constraint).
  void assert_equal(const Wire& a, const Wire& b, std::string_view note = {});

  /// Enforces that `bit` is 0 or 1 (one constraint).
  void assert_boolean(const Wire& bit, std::string_view note = {});

  /// See the free conditional_swap.
  std::pair<Wire, Wire> conditional_swap(const Wire& s, const Wire& l,
                                         const Wire& r) {
    return zksnark::conditional_swap(*this, s, l, r);
  }

  [[nodiscard]] const ConstraintSystem& cs() const {
    return shape_ ? *shape_ : cs_;
  }
  [[nodiscard]] std::span<const Fr> assignment() const { return assignment_; }

  /// Sanity: the witness satisfies the constraints.
  [[nodiscard]] bool satisfied(std::string* first_violation = nullptr) const {
    return cs().is_satisfied(assignment_, first_violation);
  }

 private:
  Wire allocate(const Fr& value, bool is_public);
  void enforce(LinearCombination a, LinearCombination b, LinearCombination c,
               std::string_view note, std::string_view fallback);

  ConstraintSystem cs_;                            // built here (full mode)
  std::shared_ptr<const ConstraintSystem> shape_;  // frozen (values-only)
  std::vector<Fr> assignment_;
};

/// The values-only builder: the same operations as CircuitBuilder, but a
/// wire is just its value and constraints are not recorded (assertions are
/// not checked either; `prove` checks the finished assignment).
class WitnessBuilder {
 public:
  using WireType = ValueWire;

  /// `num_variables` reserves the assignment (the shape's variable count).
  explicit WitnessBuilder(std::size_t num_variables) {
    assignment_.reserve(num_variables);
    assignment_.push_back(Fr::one());
  }

  ValueWire public_input(const Fr& value) { return witness(value); }
  ValueWire witness(const Fr& value) {
    assignment_.push_back(value);
    return {value};
  }

  static ValueWire constant(const Fr& c) { return {c}; }
  static ValueWire add(const ValueWire& a, const ValueWire& b) {
    return {a.value + b.value};
  }
  static ValueWire sub(const ValueWire& a, const ValueWire& b) {
    return {a.value - b.value};
  }
  static ValueWire scale(const ValueWire& a, const Fr& k) {
    return {a.value * k};
  }

  ValueWire mul(const ValueWire& a, const ValueWire& b, std::string_view = {}) {
    return witness(a.value * b.value);
  }
  ValueWire materialize(const ValueWire& a, std::string_view = {}) {
    return witness(a.value);
  }
  void assert_equal(const ValueWire&, const ValueWire&, std::string_view = {}) {}
  void assert_boolean(const ValueWire&, std::string_view = {}) {}

  [[nodiscard]] std::vector<Fr> take_assignment() && {
    return std::move(assignment_);
  }

 private:
  std::vector<Fr> assignment_;
};

}  // namespace waku::zksnark
