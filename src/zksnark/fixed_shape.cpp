#include "zksnark/fixed_shape.hpp"

namespace waku::zksnark {

const FixedShape& FixedShapeCache::at(std::size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(depth);
  if (it == entries_.end()) {
    auto cs = std::make_shared<const ConstraintSystem>(build_(depth));
    Rng rng(ceremony_seed_ + depth);
    Keypair keypair = trusted_setup(*cs, rng);  // fills cs's digest memo
    it = entries_.emplace(depth, FixedShape{std::move(cs), std::move(keypair)})
             .first;
  }
  return it->second;
}

}  // namespace waku::zksnark
