// Microbenchmark: versioned segment-tree metadata operations (build and
// collect) vs write size, tree span and history depth. A write's build is
// timed together with the version manager's border answer for it
// (MaxVersionTree::add), which is what a StartWrite costs end to end.
#include <benchmark/benchmark.h>

#include "blob/meta_ops.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"

using namespace bs;
using namespace bs::blob;

namespace {

std::vector<ChunkDescriptor> leaves_for(BlobId blob, const WriteExtent& w) {
  std::vector<ChunkDescriptor> out;
  for (std::uint64_t i = 0; i < w.chunk_count; ++i) {
    ChunkDescriptor d;
    d.key = ChunkKey{blob, w.version, w.first_chunk + i};
    d.size = 1 << 20;
    d.checksum = i;
    d.replicas = {NodeId{i % 8}};
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<WriteExtent> random_history(int n, std::uint64_t span,
                                        std::uint64_t& root_out) {
  Rng rng(42);
  std::vector<WriteExtent> history;
  std::uint64_t reserved = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t first = rng.next_below(span);
    const std::uint64_t count =
        1 + rng.next_below(std::max<std::uint64_t>(span / 8, 1));
    reserved = std::max(reserved, first + count);
    history.push_back(WriteExtent{static_cast<Version>(i + 1), first, count,
                                  next_pow2(reserved)});
  }
  root_out = next_pow2(reserved);
  return history;
}

void BM_BuildNodes_FullWrite(benchmark::State& state) {
  const auto chunks = static_cast<std::uint64_t>(state.range(0));
  const BlobId blob{1};
  WriteExtent w{1, 0, chunks, next_pow2(chunks)};
  auto leaves = leaves_for(blob, w);
  for (auto _ : state) {
    auto nodes =
        meta_ops::build_nodes(blob, w, leaves, {}, next_pow2(chunks));
    benchmark::DoNotOptimize(nodes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunks));
}
BENCHMARK(BM_BuildNodes_FullWrite)->Arg(16)->Arg(256)->Arg(4096);

/// The version manager's index after `history` started, in order.
meta_ops::MaxVersionTree tree_of(const std::vector<WriteExtent>& history) {
  meta_ops::MaxVersionTree tree;
  for (const auto& e : history) (void)tree.add(e);
  return tree;
}

// Each iteration answers and records the same write again: its nodes exist
// after the first, and recording a version twice changes nothing.
void BM_BuildNodes_SmallWriteDeepHistory(benchmark::State& state) {
  const int hist = static_cast<int>(state.range(0));
  const BlobId blob{1};
  std::uint64_t root = 0;
  auto history = random_history(hist, 4096, root);
  auto tree = tree_of(history);
  WriteExtent w{static_cast<Version>(hist + 1), 100, 4, root};
  auto leaves = leaves_for(blob, w);
  for (auto _ : state) {
    auto nodes =
        meta_ops::build_nodes(blob, w, leaves, tree.add(w), root);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_BuildNodes_SmallWriteDeepHistory)->Arg(8)->Arg(64)->Arg(512);

// The gateway store blob's shape: back-to-back appends of 1-6 chunks. The
// timed write is the next append; its left flanks cover the whole history.
std::vector<WriteExtent> append_history(int n, std::uint64_t& end_out) {
  Rng rng(42);
  std::vector<WriteExtent> history;
  std::uint64_t end = 0;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t count = 1 + rng.next_below(6);
    history.push_back(WriteExtent{static_cast<Version>(i + 1), end, count,
                                  next_pow2(end + count)});
    end += count;
  }
  end_out = end;
  return history;
}

void BM_BuildNodes_AppendHistory(benchmark::State& state) {
  const int hist = static_cast<int>(state.range(0));
  const BlobId blob{1};
  std::uint64_t end = 0;
  auto history = append_history(hist, end);
  auto tree = tree_of(history);
  const std::uint64_t root = next_pow2(end + 4);
  WriteExtent w{static_cast<Version>(hist + 1), end, 4, root};
  auto leaves = leaves_for(blob, w);
  for (auto _ : state) {
    auto nodes =
        meta_ops::build_nodes(blob, w, leaves, tree.add(w), root);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_BuildNodes_AppendHistory)->Arg(512)->Arg(4096);

void BM_SubtreeVersion(benchmark::State& state) {
  const int hist = static_cast<int>(state.range(0));
  std::uint64_t root = 0;
  auto history = random_history(hist, 4096, root);
  Rng rng(7);
  for (auto _ : state) {
    const std::uint64_t lo = rng.next_below(4096);
    benchmark::DoNotOptimize(meta_ops::subtree_version(
        history, static_cast<Version>(hist), lo, 16));
  }
}
BENCHMARK(BM_SubtreeVersion)->Arg(8)->Arg(64)->Arg(512);

void BM_Collect(benchmark::State& state) {
  // Tree with `versions` random writes over 1024 chunks; collect random
  // 64-chunk ranges from the latest version.
  const int versions = static_cast<int>(state.range(0));
  const BlobId blob{1};
  sim::Simulation sim;
  InMemoryMetadataStore store;
  std::uint64_t root = 0;
  auto history = random_history(versions, 1024, root);
  meta_ops::MaxVersionTree tree;
  for (const auto& w : history) {
    auto leaves = leaves_for(blob, w);
    auto nodes = meta_ops::build_nodes(blob, w, leaves, tree.add(w),
                                       w.root_chunks);
    for (auto& [key, node] : nodes) {
      sim.spawn([](MetadataStore& st, NodeKey k,
                   TreeNode n) -> sim::Task<void> {
        (void)co_await st.put(k, std::move(n));
      }(store, key, node));
    }
    sim.run();
  }
  const Version latest = history.back().version;
  const std::uint64_t latest_root = history.back().root_chunks;
  Rng rng(3);
  for (auto _ : state) {
    const std::uint64_t lo = rng.next_below(latest_root > 64
                                                ? latest_root - 64
                                                : 1);
    bool done = false;
    sim.spawn([](sim::Simulation& s, MetadataStore& st, BlobId b, Version v,
                 std::uint64_t rc, std::uint64_t l,
                 bool& flag) -> sim::Task<void> {
      auto r = co_await meta_ops::collect(s, st, b, v, rc, l, 64);
      benchmark::DoNotOptimize(r);
      flag = true;
    }(sim, store, blob, latest, latest_root, lo, done));
    while (!done && sim.step()) {
    }
  }
}
BENCHMARK(BM_Collect)->Arg(4)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
