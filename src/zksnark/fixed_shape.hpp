// Per-depth fixed shapes: a circuit whose constraint structure depends only
// on the tree depth (the RLN circuits) is built once per depth with the full
// CircuitBuilder, frozen, digested and keyed. Every proof then computes only
// its witness (WitnessBuilder) and pairs it with the shared shape.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "zksnark/groth16.hpp"

namespace waku::zksnark {

/// One depth's frozen constraint system and its setup artifact.
struct FixedShape {
  /// Read-only and shared by every circuit of this depth; its digest memo
  /// is filled before it is shared.
  std::shared_ptr<const ConstraintSystem> cs;
  Keypair keypair;
};

/// Thread-safe, build-once cache of fixed shapes by depth. Entries live for
/// the process, so returned references stay valid.
class FixedShapeCache {
 public:
  /// `build(depth)` returns the depth's constraint system; the ceremony
  /// for depth d is seeded with `ceremony_seed + d` (deterministic setup,
  /// so every node of a simulation shares the same artifact).
  FixedShapeCache(ConstraintSystem (*build)(std::size_t depth),
                  std::uint64_t ceremony_seed)
      : build_(build), ceremony_seed_(ceremony_seed) {}

  const FixedShape& at(std::size_t depth);

 private:
  ConstraintSystem (*build_)(std::size_t);
  std::uint64_t ceremony_seed_;
  std::mutex mu_;
  std::map<std::size_t, FixedShape> entries_;
};

}  // namespace waku::zksnark
