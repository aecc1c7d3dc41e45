// Extension bench: streaming-pipeline ingest throughput (updates/s) as
// producer count scales, with and without a concurrent training loop on
// the consumer side.
//
// Producers hash-shard onto the UpdateIngestor's bounded MPSC queues
// (kBlock, lossless); the single consumer pumps the MicroBatcher —
// WAL-append, coalesce, apply under the epoch write barrier — either in
// a tight loop ("ingest-only") or interleaved with GraphSAGE minibatch
// steps ("with-training", the deployment shape). Results also land in
// BENCH_ingest_throughput.json so the perf trajectory is tracked across
// PRs (docs/streaming_pipeline.md).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "gnn/model.h"
#include "gnn/trainer.h"
#include "obs/metrics.h"
#include "pipeline/continuous_trainer.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"
#include "storage/graph_store.h"
#include "temporal/edge_log.h"

using namespace platod2gl;
using namespace platod2gl::bench;

namespace {

constexpr std::size_t kVertices = 2000;
constexpr std::size_t kUpdatesTotal = 200000;  // split across producers

/// Community graph + features/labels so the with-training mode has a
/// real GNN task; streamed updates then rewire the same vertex universe.
void SeedGraph(GraphStore* g) {
  Xoshiro256 rng(5);
  for (VertexId v = 0; v < kVertices; ++v) {
    for (int k = 0; k < 4; ++k) {
      const VertexId u = rng.NextUint64(kVertices);
      if (u != v) g->AddEdge({v, u, 1.0, 0});
    }
    std::vector<float> f(8);
    for (auto& x : f) x = static_cast<float>(rng.NextDouble() - 0.5);
    f[v % 4] += 1.5f;
    g->attributes().SetFeatures(v, std::move(f));
    g->attributes().SetLabel(v, static_cast<std::int64_t>(v % 4));
  }
}

struct RunResult {
  double secs = 0.0;
  std::uint64_t applied = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  std::size_t train_steps = 0;
};

/// One measured configuration: `producers` feed threads, consumer either
/// pump-only or pump+train. Returns wall time from first offer to fully
/// drained pipeline.
RunResult RunPipeline(std::size_t producers, bool train) {
  GraphStore graph;
  SeedGraph(&graph);
  ThreadPool pool(4);
  obs::MetricRegistry metrics;  // pd2gl_ingest_* and pd2gl_micro_batcher_*
  UpdateIngestor ingestor(IngestorConfig{.num_shards = 8,
                                         .shard_capacity = 8192,
                                         .num_relations = 1},
                          &metrics);
  EpochCoordinator epochs;
  TemporalEdgeLog log;
  MicroBatcher batcher(&graph, &pool, &ingestor, &epochs, &log,
                       MicroBatcherConfig{.max_batch = 8192}, &metrics);

  GraphSageModel model(
      GraphSageConfig{.in_dim = 8, .hidden_dim = 16, .num_classes = 4}, 3);
  Trainer trainer(&graph, &model,
                  TrainerConfig{.batch_size = 64, .fanout_hop1 = 5,
                                .fanout_hop2 = 5});
  ContinuousTrainer driver(&ingestor, &batcher, &epochs, &trainer);

  std::atomic<std::uint64_t> clock{0};
  const std::size_t per_producer = kUpdatesTotal / producers;
  Timer timer;
  std::vector<std::thread> feeds;
  feeds.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    feeds.emplace_back([&, p] {
      Xoshiro256 rng(100 + p);
      for (std::size_t i = 0; i < per_producer; ++i) {
        const std::uint64_t ts = 1 + clock.fetch_add(1);
        EdgeUpdate u;
        const std::uint64_t roll = rng.NextUint64(10);
        u.kind = roll < 6   ? UpdateKind::kInsert
                 : roll < 8 ? UpdateKind::kInPlaceUpdate
                            : UpdateKind::kDelete;
        u.edge = {rng.NextUint64(kVertices), rng.NextUint64(kVertices),
                  1.0 + static_cast<double>(rng.NextUint64(100)), 0};
        (void)ingestor.Offer(TimedUpdate{ts, u});
      }
    });
  }

  RunResult r;
  Xoshiro256 train_rng(7);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (train) {
        driver.Step(train_rng);
        ++r.train_steps;
      } else {
        if (batcher.PumpOnce(/*force=*/true) == 0) std::this_thread::yield();
      }
    }
    batcher.Flush();
  });
  for (auto& t : feeds) t.join();
  ingestor.Close();
  done.store(true, std::memory_order_release);
  consumer.join();
  r.secs = timer.ElapsedSeconds();

  const obs::RegistrySnapshot snap = metrics.Snapshot();
  r.applied = snap.Value("pd2gl_micro_batcher_updates_ingested");
  r.batches = snap.Value("pd2gl_micro_batcher_batches_applied");
  r.coalesced = snap.Value("pd2gl_micro_batcher_coalesced");
  return r;
}

}  // namespace

int main() {
  std::printf("=== Extension: streaming ingest throughput ===\n\n");
  std::printf("%zu updates total, kBlock backpressure, max_batch 8192\n\n",
              kUpdatesTotal);
  std::printf("%-14s %10s %12s %10s %9s %7s\n", "mode", "producers",
              "updates/s", "batches", "coalesced", "steps");
  PrintRule();

  JsonRecords json("ingest_throughput");
  for (const bool train : {false, true}) {
    for (const std::size_t producers : {1u, 2u, 4u, 8u}) {
      const RunResult r = RunPipeline(producers, train);
      const double rate = static_cast<double>(kUpdatesTotal) / r.secs;
      std::printf("%-14s %10zu %12.0f %10llu %9llu %7zu\n",
                  train ? "with-training" : "ingest-only", producers, rate,
                  (unsigned long long)r.batches,
                  (unsigned long long)r.coalesced, r.train_steps);
      json.Rec()
          .Str("mode", train ? "with-training" : "ingest-only")
          .Num("producers", static_cast<std::uint64_t>(producers))
          .Num("updates", static_cast<std::uint64_t>(kUpdatesTotal))
          .Num("updates_per_sec", rate)
          .Num("micro_batches", r.batches)
          .Num("coalesced", r.coalesced)
          .Num("train_steps", static_cast<std::uint64_t>(r.train_steps));
    }
  }
  PrintRule();

  if (json.WriteFile("BENCH_ingest_throughput.json")) {
    std::printf("wrote BENCH_ingest_throughput.json\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_ingest_throughput.json\n");
  }
  return 0;
}
