// train-stream: the paper's deployment (Fig 1). GraphSAGE minibatch steps
// run through ContinuousTrainer::Step while a paced open-loop producer
// keeps updating the same store. Time goes to the pump, node-sampler
// refresh, subgraph sampling, feature gather and the model step; the
// serving and distributed layers do no work here.
#include <cmath>
#include <thread>

#include "common.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "gnn/model.h"
#include "gnn/tensor.h"
#include "gnn/trainer.h"
#include "pipeline/continuous_trainer.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"
#include "sampling/node_sampler.h"
#include "sampling/subgraph_sampler.h"

namespace perfbench {

using namespace platod2gl;

namespace {

/// The producer's fixed rate: about a fifth of what the pipeline sustains
/// when it does nothing else (ingest-burst: a median of 97k-120k updates/s
/// over sets of ten runs on the 4-core machine the benchmark was written
/// on), so the pipeline keeps up with room to spare and every step's pump
/// has real work. The paper gives no production update rate; the fraction
/// is a choice.
constexpr double kUpdatesPerSec = 20000.0;
constexpr std::size_t kBatchSize = 256;
constexpr std::size_t kFanout = 10;
constexpr int kWarmupSteps = 5;
constexpr StreamMix kMix{.insert = 0.6, .update = 0.2, .zipf_s = 0.8};
constexpr std::size_t kPoolThreads = 2;

struct StepSample {
  double ms = 0.0;
  double loss = 0.0;
  std::uint64_t staleness = 0;
  double layers_ms = 0.0;  ///< traced: time inside layer calls
};

/// The traced twin of ContinuousTrainer::Step: the same public calls in the
/// same order (PumpOnce, PinRead, RefreshNodeSampler, then the node-sample,
/// subgraph-sample, gather and model-step pieces of Trainer::TrainStep),
/// each wrapped in a span.
class TracedStep {
 public:
  TracedStep(GraphStore* graph, GraphSageModel* model, UpdateIngestor* ingestor,
             MicroBatcher* batcher, EpochCoordinator* epochs, SpanLog* log)
      : graph_(graph),
        model_(model),
        ingestor_(ingestor),
        batcher_(batcher),
        epochs_(epochs),
        log_(log),
        node_sampler_(&graph->topology()),
        subgraph_sampler_(graph) {}

  StepSample Run(std::uint64_t step, Xoshiro256& rng) {
    StepSample out;
    const std::int32_t root = log_->Begin("driver.step", -1, step);
    std::int32_t s = log_->Begin("pipeline.pump", root, step);
    const std::size_t applied = batcher_->PumpOnce();
    log_->End(s);
    {
      s = log_->Begin("pipeline.pin", root, step);
      const EpochCoordinator::ReadGuard pin = epochs_->PinRead();
      log_->End(s);
      if (applied > 0) {
        s = log_->Begin("sampling.node_refresh", root, step);
        node_sampler_.Refresh();
        log_->End(s);
      }
      const std::uint64_t ingested = ingestor_->watermark();
      const std::uint64_t done = batcher_->applied_watermark();
      out.staleness = ingested > done ? ingested - done : 0;

      s = log_->Begin("sampling.node_sample", root, step);
      const std::vector<VertexId> seeds =
          node_sampler_.SampleUniform(kBatchSize, rng);
      log_->End(s);
      s = log_->Begin("sampling.subgraph", root, step);
      sg_ = subgraph_sampler_.Sample(
          seeds, {{.fanout = kFanout}, {.fanout = kFanout}}, rng);
      log_->End(s);

      s = log_->Begin("storage.gather", root, step);
      bufs_.resize(sg_.layers.size());
      for (std::size_t l = 0; l < sg_.layers.size(); ++l) {
        graph_->attributes().GatherFeatures(sg_.layers[l], kFeatureDim,
                                            &bufs_[l]);
      }
      labels_.clear();
      for (VertexId v : seeds) {
        labels_.push_back(graph_->attributes().GetLabel(v).value_or(-1));
      }
      log_->End(s);

      GraphSageModel::Inputs in;
      in.sg = &sg_;
      for (std::size_t l = 0; l < sg_.layers.size(); ++l) {
        Tensor t(sg_.layers[l].size(), kFeatureDim);
        std::copy(bufs_[l].begin(), bufs_[l].end(), t.data());
        in.features.push_back(std::move(t));
      }
      s = log_->Begin("gnn.model_step", root, step);
      out.loss = model_->TrainStep(in, labels_, TrainerConfig{}.learning_rate)
                     .loss;
      log_->End(s);
    }
    log_->End(root);
    const std::vector<Span>& spans = log_->spans();
    for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans.size();
         ++i) {
      out.layers_ms +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    }
    out.ms = static_cast<double>(spans[root].end_ns - spans[root].start_ns) /
             1e6;
    return out;
  }

 private:
  GraphStore* graph_;
  GraphSageModel* model_;
  UpdateIngestor* ingestor_;
  MicroBatcher* batcher_;
  EpochCoordinator* epochs_;
  SpanLog* log_;
  NodeSampler node_sampler_;
  SubgraphSampler subgraph_sampler_;
  SampledSubgraph sg_;
  std::vector<std::vector<float>> bufs_;
  std::vector<std::int64_t> labels_;
};

SampleCacheStats CacheStats(const GraphStore& g) {
  return g.sample_cache() != nullptr ? g.sample_cache()->Stats()
                                     : SampleCacheStats{};
}

}  // namespace

Result RunTrainStream(const Options& opt) {
  Result result;
  result.threads = {{"producer", 1},
                    {"driver", 1},
                    {"micro_batcher_pool", static_cast<int>(kPoolThreads)}};
  const GraphInput input = MakeGraphInput(opt.seed);
  const std::size_t stream_len = static_cast<std::size_t>(
      kUpdatesPerSec * opt.seconds * 1.5 + 1000);
  const std::vector<TimedUpdate> stream =
      MakeUpdateStream(input, stream_len, kMix, opt.seed);

  auto stores = TimedSetup<GraphStore>(
      kSetupReps, 1, [&] { return LoadStore(input); }, &result);
  GraphStore& graph = *stores[0];

  ThreadPool pool(kPoolThreads);
  UpdateIngestor ingestor(PipelineIngestorConfig());
  EpochCoordinator epochs;
  TemporalEdgeLog log;
  MicroBatcher batcher(&graph, &pool, &ingestor, &epochs, &log);
  GraphSageModel model(GraphSageConfig{.in_dim = kFeatureDim,
                                       .hidden_dim = 64,
                                       .num_classes = kNumClasses},
                       opt.seed);
  Trainer trainer(&graph, &model,
                  TrainerConfig{.batch_size = kBatchSize,
                                .fanout_hop1 = kFanout,
                                .fanout_hop2 = kFanout});
  ContinuousTrainer driver(&ingestor, &batcher, &epochs, &trainer);
  SpanLog driver_log("driver");
  TracedStep traced(&graph, &model, &ingestor, &batcher, &epochs,
                    &driver_log);
  Xoshiro256 rng(opt.seed * 0x9E3779B97F4A7C15ULL + 17);

  std::uint64_t step_id = 0;
  auto step = [&]() -> StepSample {
    ++step_id;
    if (opt.trace) return traced.Run(step_id, rng);
    const std::int64_t t0 = NowNs();
    const ContinuousTrainer::StepReport rep = driver.Step(rng);
    return StepSample{static_cast<double>(NowNs() - t0) / 1e6, rep.loss,
                      rep.staleness, 0.0};
  };
  for (int i = 0; i < kWarmupSteps; ++i) step();

  const MicroBatcherStats batcher0 = batcher.Stats();
  const SampleCacheStats cache0 = CacheStats(graph);
  driver_log.Clear();

  // Producer: paced open loop at kUpdatesPerSec for the whole phase.
  std::atomic<bool> stop{false};
  PacedStats paced;
  std::uint64_t last_ok_ts = 0;
  std::uint64_t offer_failures = 0;
  double offer_ms = 0.0;
  const std::int64_t start = NowNs();
  const std::int64_t end =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::thread producer([&] {
    paced = RunPaced(start, 1e9 / kUpdatesPerSec, stream.size(), stop,
                     [&](std::size_t i) {
                       const std::int64_t t0 = opt.trace ? NowNs() : 0;
                       const Status st = ingestor.Offer(stream[i]);
                       if (opt.trace) {
                         offer_ms += static_cast<double>(NowNs() - t0) / 1e6;
                       }
                       if (st.ok()) {
                         last_ok_ts = stream[i].timestamp;
                       } else {
                         ++offer_failures;
                       }
                     });
  });

  std::vector<StepSample> steps;
  while (NowNs() < end) steps.push_back(step());
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  stop.store(true, std::memory_order_release);
  producer.join();
  const std::size_t queued_at_stop = ingestor.QueueDepth();
  const MicroBatcherStats batcher1 = batcher.Stats();
  const SampleCacheStats cache1 = CacheStats(graph);

  driver.Drain();

  std::vector<double> step_ms, staleness, layers_ms;
  std::size_t nonfinite = 0;
  for (const StepSample& s : steps) {
    step_ms.push_back(s.ms);
    staleness.push_back(static_cast<double>(s.staleness));
    layers_ms.push_back(s.layers_ms);
    if (!std::isfinite(s.loss)) ++nonfinite;
  }

  result.attempted = steps.size();
  result.failed = nonfinite;
  result.Check("train.steps_ran", steps.size() >= 20,
               std::to_string(steps.size()) + " steps");
  result.Check("train.losses_finite", nonfinite == 0,
               std::to_string(nonfinite) + " non-finite losses");
  result.Check("train.offers_accepted", offer_failures == 0,
               std::to_string(offer_failures) + " offers refused");
  result.Check("train.watermark_after_drain",
               batcher.applied_watermark() == last_ok_ts,
               "applied " + std::to_string(batcher.applied_watermark()) +
                   " != last offered " + std::to_string(last_ok_ts));

  // The watermark check above cannot see an update the pipeline dropped
  // behind a newer one, so count drops directly: with more than one
  // ingestor shard a pump can take one shard's newer updates before another
  // shard's older ones, and the WAL then refuses the older ones as out of
  // order (see PipelineIngestorConfig and README).
  const std::uint64_t dropped = batcher.Stats().log_rejected;
  result.Check("train.no_updates_dropped", dropped == 0,
               std::to_string(dropped) + " updates refused by the WAL");

  const MemoryBreakdown mem = graph.TopologyMemory();
  result.e2e.emplace_back("train_step_ms.p50", Percentile(step_ms, 50));
  result.e2e.emplace_back("train_step_ms.p95", Percentile(step_ms, 95));
  result.e2e.emplace_back("train_steps_per_s",
                          static_cast<double>(steps.size()) / wall_s);
  result.e2e.emplace_back("bytes_per_edge",
                          static_cast<double>(mem.Total()) /
                              static_cast<double>(graph.NumEdges()));
  result.counts.insert(
      result.counts.end(),
      {{"steps", static_cast<double>(steps.size())},
       {"updates_offered", static_cast<double>(paced.sent)},
       {"edges_end", static_cast<double>(graph.NumEdges())},
       {"updates_dropped", static_cast<double>(dropped)},
       {"loss_last", steps.empty() ? 0.0 : steps.back().loss}});

  PacingReport pacing;
  pacing.generator = "producer";
  pacing.phase = "train";
  pacing.lateness_p99_ms = Percentile(paced.lateness_ms, 99);
  pacing.lateness_max_ms = Percentile(paced.lateness_ms, 100);
  pacing.backlog_end =
      static_cast<double>(paced.due_at_stop - paced.sent + queued_at_stop);
  pacing.backlog_limit = kUpdatesPerSec * 0.1;
  pacing.lateness_limit_ms = 10.0;
  result.pacing.push_back(pacing);

  if (opt.trace) {
    const std::vector<double> pump = driver_log.DurationsMs("pipeline.pump");
    const double ingested =
        static_cast<double>(batcher1.updates_ingested -
                            batcher0.updates_ingested);
    const double batches = static_cast<double>(batcher1.batches_applied -
                                               batcher0.batches_applied);
    const double lookups =
        static_cast<double>((cache1.hits - cache0.hits) +
                            (cache1.stale_hits - cache0.stale_hits) +
                            (cache1.misses - cache0.misses));
    result.layers = {
        {"pipeline.pump_ms.p50", Percentile(pump, 50)},
        {"pipeline.pump_ms.p99", Percentile(pump, 99)},
        {"pipeline.updates_per_pump", batches > 0 ? ingested / batches : 0.0},
        {"pipeline.coalesced_ratio",
         ingested > 0 ? static_cast<double>(batcher1.coalesced -
                                            batcher0.coalesced) /
                            ingested
                      : 0.0},
        {"pipeline.offer_wait_ms", offer_ms},
        {"pipeline.consumer_busy_share", Sum(pump) / (wall_s * 1e3)},
        {"pipeline.staleness_updates.p99", Percentile(staleness, 99)},
        {"sampling.node_refresh_ms.p50",
         Percentile(driver_log.DurationsMs("sampling.node_refresh"), 50)},
        {"sampling.subgraph_ms.p50",
         Percentile(driver_log.DurationsMs("sampling.subgraph"), 50)},
        {"sampling.cache_hit_ratio",
         lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups
                     : 0.0},
        {"storage.gather_ms.p50",
         Percentile(driver_log.DurationsMs("storage.gather"), 50)},
        {"storage.topology_bytes", static_cast<double>(mem.topology_bytes)},
        {"storage.index_bytes", static_cast<double>(mem.index_bytes)},
        {"gnn.model_step_ms.p50",
         Percentile(driver_log.DurationsMs("gnn.model_step"), 50)},
        {"trace.layers_ms.p50", Percentile(layers_ms, 50)},
    };
    result.span_logs.push_back(std::move(driver_log));
  }
  return result;
}

}  // namespace perfbench
