#include "concurrency/batch_updater.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace platod2gl {

BatchUpdater::BatchUpdater(TopologyStore* store, ThreadPool* pool)
    : store_(store), pool_(pool) {}

void BatchUpdater::ApplyBatch(std::vector<EdgeUpdate> batch) {
  if (batch.empty()) return;
  // Phase 1 — sort an index array by (source, arrival position): cheaper
  // than moving 40-byte updates, and the position tiebreak keeps the
  // per-edge update order semantic (stable).
  std::vector<std::uint32_t> order(batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const VertexId sa = batch[a].edge.src;
              const VertexId sb = batch[b].edge.src;
              return sa != sb ? sa < sb : a < b;
            });

  // Group boundaries: one group per source vertex.
  std::vector<std::size_t> group_starts;
  group_starts.push_back(0);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (batch[order[i]].edge.src != batch[order[i - 1]].edge.src) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(order.size());
  const std::size_t num_groups = group_starts.size() - 1;

  // Phase 2 — each thread owns a dynamic range of source groups; a
  // samtree is looked up (and created if new) once per group under its
  // map-shard lock, then the whole group is applied to it with no
  // per-update latching at all — two threads never touch the same tree.
  std::atomic<std::size_t> next_group{0};
  const std::size_t num_workers = pool_->num_threads();
  const std::size_t stride =
      std::max<std::size_t>(1, num_groups / (num_workers * 4));
  for (std::size_t wkr = 0; wkr < num_workers; ++wkr) {
    pool_->Submit([&] {
      while (true) {
        const std::size_t begin =
            // order: ticket draw only; group results are published by the join, not this counter
            next_group.fetch_add(stride, std::memory_order_relaxed);
        if (begin >= num_groups) return;
        const std::size_t end = std::min(num_groups, begin + stride);
        for (std::size_t g = begin; g < end; ++g) {
          // The only synchronisation is the shard-locked lookup; the tree
          // itself is owned by this thread for the whole group.
          Samtree* tree = store_->GetOrCreateTree(
              batch[order[group_starts[g]]].edge.src);
          for (std::size_t i = group_starts[g]; i < group_starts[g + 1];
               ++i) {
            const EdgeUpdate& u = batch[order[i]];
            switch (u.kind) {
              case UpdateKind::kInsert: {
                const std::size_t before = tree->size();
                tree->Insert(u.edge.dst, u.edge.weight);
                if (tree->size() != before) store_->NoteEdgeInserted();
                break;
              }
              case UpdateKind::kInPlaceUpdate:
                tree->Update(u.edge.dst, u.edge.weight);
                break;
              case UpdateKind::kDelete:
                if (tree->Remove(u.edge.dst)) store_->NoteEdgeRemoved();
                break;
            }
          }
        }
      }
    });
  }
  pool_->Wait();
  MaybeVerifyStore();
}

void BatchUpdater::ApplyBatchLatchBased(const std::vector<EdgeUpdate>& batch) {
  // Blocked submission: ~8 blocks per worker keeps the task queue cold
  // while still letting the pool rebalance when a block lands on a run of
  // expensive updates (deep trees, splits).
  const std::size_t grain = std::max<std::size_t>(
      16, batch.size() / (pool_->num_threads() * 8));
  pool_->ParallelForBlocked(batch.size(), grain,
                            [&](std::size_t i) { store_->Apply(batch[i]); });
  MaybeVerifyStore();
}

void BatchUpdater::ApplySequential(const std::vector<EdgeUpdate>& batch) {
  for (const EdgeUpdate& u : batch) store_->Apply(u);
  MaybeVerifyStore();
}

void BatchUpdater::MaybeVerifyStore() {
#if defined(PD2GL_ENABLE_INVARIANTS)
  std::string err;
  if (!store_->CheckAllInvariants(&err)) {
    std::fprintf(stderr, "PD2GL invariant violation after batch: %s\n",
                 err.c_str());
    std::abort();
  }
#endif
}

}  // namespace platod2gl
