#include "zksnark/circuit.hpp"

#include "common/expect.hpp"

namespace waku::zksnark {

CircuitBuilder::CircuitBuilder(std::shared_ptr<const ConstraintSystem> shape,
                               std::vector<Fr> assignment)
    : shape_(std::move(shape)), assignment_(std::move(assignment)) {
  WAKU_EXPECTS(shape_ != nullptr);
  WAKU_EXPECTS(assignment_.size() == shape_->num_variables());
}

Wire CircuitBuilder::allocate(const Fr& value, bool is_public) {
  WAKU_EXPECTS(shape_ == nullptr);  // a frozen shape takes no new variables
  const VarIndex v =
      is_public ? cs_.allocate_public() : cs_.allocate_private();
  WAKU_ASSERT(v == assignment_.size());
  assignment_.push_back(value);
  return Wire{LinearCombination::variable(v), value};
}

void CircuitBuilder::enforce(LinearCombination a, LinearCombination b,
                             LinearCombination c, std::string_view note,
                             std::string_view fallback) {
  WAKU_EXPECTS(shape_ == nullptr);  // nor new constraints
  cs_.enforce(std::move(a), std::move(b), std::move(c),
              std::string(note.empty() ? fallback : note));
}

Wire CircuitBuilder::public_input(const Fr& value) {
  return allocate(value, /*is_public=*/true);
}

Wire CircuitBuilder::witness(const Fr& value) {
  return allocate(value, /*is_public=*/false);
}

Wire CircuitBuilder::constant(const Fr& c) {
  return Wire{LinearCombination::constant(c), c};
}

Wire CircuitBuilder::add(const Wire& a, const Wire& b) {
  return Wire{a.lc + b.lc, a.value + b.value};
}

Wire CircuitBuilder::sub(const Wire& a, const Wire& b) {
  return Wire{a.lc - b.lc, a.value - b.value};
}

Wire CircuitBuilder::scale(const Wire& a, const Fr& k) {
  return Wire{a.lc.scaled(k), a.value * k};
}

Wire CircuitBuilder::mul(const Wire& a, const Wire& b, std::string_view note) {
  const Wire out = witness(a.value * b.value);
  enforce(a.lc, b.lc, out.lc, note, "mul");
  return out;
}

Wire CircuitBuilder::materialize(const Wire& a, std::string_view note) {
  const Wire out = witness(a.value);
  enforce(a.lc, LinearCombination::constant(Fr::one()), out.lc, note,
          "materialize");
  return out;
}

void CircuitBuilder::assert_equal(const Wire& a, const Wire& b,
                                  std::string_view note) {
  enforce(a.lc - b.lc, LinearCombination::constant(Fr::one()),
          LinearCombination{}, note, "assert_equal");
}

void CircuitBuilder::assert_boolean(const Wire& bit, std::string_view note) {
  // bit * (1 - bit) = 0
  enforce(bit.lc, LinearCombination::constant(Fr::one()) - bit.lc,
          LinearCombination{}, note, "boolean");
}

}  // namespace waku::zksnark
