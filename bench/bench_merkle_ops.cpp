// E5 — Merkle tree computation overhead (the benchmark paper §IV-A
// explicitly lists as future work: "Evaluating Merkle tree computation
// overhead ... the concrete benchmarking result in this regard is not
// available").
//
// Measures, across depths: insertion, arbitrary update (deletion), auth
// path extraction, path verification, and partial-view event processing.
#include <benchmark/benchmark.h>

#include <array>

#include "hash/poseidon.hpp"
#include "merkle/merkle_tree.hpp"
#include "merkle/partial_view.hpp"

namespace {

using namespace waku;  // NOLINT
using merkle::IncrementalMerkleTree;
using merkle::PartialMerkleView;

IncrementalMerkleTree populated_tree(std::size_t depth, std::uint64_t count) {
  IncrementalMerkleTree tree(depth);
  for (std::uint64_t i = 0; i < count; ++i) {
    tree.insert(hash::poseidon1(ff::Fr::from_u64(i)));
  }
  return tree;
}

void BM_MerkleInsert(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  IncrementalMerkleTree tree(depth);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (tree.size() == tree.capacity()) {
      state.PauseTiming();
      tree = IncrementalMerkleTree(depth);
      state.ResumeTiming();
    }
    tree.insert(ff::Fr::from_u64(i++));
  }
}
BENCHMARK(BM_MerkleInsert)->Arg(10)->Arg(16)->Arg(20)->Arg(24)->Arg(32);

void BM_MerkleUpdateDelete(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  IncrementalMerkleTree tree = populated_tree(depth, 512);
  Rng rng(0xE5);
  for (auto _ : state) {
    // Deletion per the paper: write the zero leaf at a random position.
    tree.update(rng.next_below(512), ff::Fr::zero());
  }
}
BENCHMARK(BM_MerkleUpdateDelete)->Arg(10)->Arg(16)->Arg(20)->Arg(32);

void BM_MerkleAuthPath(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const IncrementalMerkleTree tree = populated_tree(depth, 512);
  Rng rng(0xE55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.auth_path(rng.next_below(512)));
  }
}
BENCHMARK(BM_MerkleAuthPath)->Arg(10)->Arg(20)->Arg(32);

void BM_MerkleVerifyPath(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  const IncrementalMerkleTree tree = populated_tree(depth, 512);
  const merkle::MerklePath path = tree.auth_path(100);
  const ff::Fr leaf = tree.leaf(100);
  const ff::Fr root = tree.root();
  for (auto _ : state) {
    benchmark::DoNotOptimize(merkle::verify_path(root, leaf, path));
  }
}
BENCHMARK(BM_MerkleVerifyPath)->Arg(10)->Arg(20)->Arg(32);

void BM_PartialViewInsertEvent(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  IncrementalMerkleTree tree = populated_tree(depth, 4);
  PartialMerkleView view = PartialMerkleView::from_tree(tree, 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (view.size() == (std::uint64_t{1} << depth)) {
      state.PauseTiming();
      tree = populated_tree(depth, 4);
      view = PartialMerkleView::from_tree(tree, 1);
      state.ResumeTiming();
    }
    view.on_insert(ff::Fr::from_u64(i++));
  }
}
BENCHMARK(BM_PartialViewInsertEvent)->Arg(10)->Arg(20)->Arg(32);

void BM_PartialViewUpdateEvent(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  IncrementalMerkleTree tree = populated_tree(depth, 256);
  PartialMerkleView view = PartialMerkleView::from_tree(tree, 1);
  Rng rng(0xE57);
  for (auto _ : state) {
    const std::uint64_t target = 2 + rng.next_below(254);
    const ff::Fr old_leaf = tree.leaf(target);
    const ff::Fr new_leaf = ff::Fr::random(rng);
    const merkle::MerklePath path = tree.auth_path(target);
    tree.update(target, new_leaf);
    view.on_update(target, old_leaf, new_leaf, path);
  }
}
BENCHMARK(BM_PartialViewUpdateEvent)->Arg(10)->Arg(20);

void BM_PoseidonHash1(benchmark::State& state) {
  const ff::Fr a = ff::Fr::from_u64(123);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::poseidon1(a));
  }
}
BENCHMARK(BM_PoseidonHash1);

void BM_PoseidonHash2(benchmark::State& state) {
  const ff::Fr a = ff::Fr::from_u64(123);
  const ff::Fr b = ff::Fr::from_u64(456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::poseidon2(a, b));
  }
}
BENCHMARK(BM_PoseidonHash2);

void BM_PoseidonHash3(benchmark::State& state) {
  const ff::Fr a = ff::Fr::from_u64(123);
  const ff::Fr b = ff::Fr::from_u64(456);
  const ff::Fr c = ff::Fr::from_u64(789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::poseidon3(a, b, c));
  }
}
BENCHMARK(BM_PoseidonHash3);

void BM_PoseidonHash4(benchmark::State& state) {
  const std::array<ff::Fr, 4> in{ff::Fr::from_u64(123), ff::Fr::from_u64(456),
                                 ff::Fr::from_u64(789), ff::Fr::from_u64(12)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::poseidon_hash(in));
  }
}
BENCHMARK(BM_PoseidonHash4);

// Field kernels, each as a dependent chain so every iteration pays the full
// latency of one operation.
void BM_FrMul(benchmark::State& state) {
  Rng rng(0xF1);
  ff::Fr x = ff::Fr::random(rng);
  const ff::Fr y = ff::Fr::random(rng);
  for (auto _ : state) {
    x = x * y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FrMul);

void BM_FrAdd(benchmark::State& state) {
  Rng rng(0xF2);
  ff::Fr x = ff::Fr::random(rng);
  const ff::Fr y = ff::Fr::random(rng);
  for (auto _ : state) {
    x = x + y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FrAdd);

}  // namespace

BENCHMARK_MAIN();
