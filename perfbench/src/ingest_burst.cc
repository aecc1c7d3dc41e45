// ingest-burst: writes only (Fig 9). One producer offers a fixed
// pre-generated update stream as fast as kBlock backpressure allows and
// one consumer pumps MicroBatcher::PumpOnce. The pipeline queue, the WAL
// append and the samtree write path do all the work; sampling, the model
// and serving do none, so a read-path change should leave this workload
// unchanged.
#include <algorithm>
#include <cmath>
#include <thread>

#include "common.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "gen/datasets.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"

namespace perfbench {

using namespace platod2gl;

namespace {

constexpr std::size_t kStreamLen = 2000000;
constexpr StreamMix kMix{.insert = 0.7, .update = 0.15, .zipf_s = 0.8};
constexpr std::size_t kPoolThreads = 2;
/// Visibility latency is sampled on every kLatencyEvery-th update.
constexpr std::size_t kLatencyEvery = 64;
/// Vertices whose neighbour rows the replay check compares.
constexpr std::size_t kCheckedHot = 64;
constexpr std::size_t kCheckedRandom = 448;

/// Same neighbours, and weights equal up to rounding: the samtree reads a
/// weight back from its sum tree, whose rounding depends on the order of
/// the updates that built it, and the pipeline coalesces and batches them.
bool SameRow(const GraphStore& a, const GraphStore& b, VertexId v) {
  auto ra = a.Neighbors(v);
  auto rb = b.Neighbors(v);
  if (ra.size() != rb.size()) return false;
  std::sort(ra.begin(), ra.end());
  std::sort(rb.begin(), rb.end());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].first != rb[i].first ||
        std::abs(ra[i].second - rb[i].second) > 1e-9 * std::abs(rb[i].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result RunIngestBurst(const Options& opt) {
  Result result;
  result.threads = {{"producer", 1},
                    {"consumer", 1},
                    {"micro_batcher_pool", static_cast<int>(kPoolThreads)}};
  const GraphInput input = MakeGraphInput(opt.seed);
  const std::size_t n = std::max<std::size_t>(
      1000, static_cast<std::size_t>(static_cast<double>(kStreamLen) *
                                     DatasetScale()));
  const std::vector<TimedUpdate> stream =
      MakeUpdateStream(input, n, kMix, opt.seed);

  // Store 0 takes the stream through the pipeline; store 1 is the
  // sequential-replay reference of the correctness check.
  auto stores = TimedSetup<GraphStore>(
      kSetupReps, 2, [&] { return LoadStore(input); }, &result);
  GraphStore& live = *stores[0];
  GraphStore& replay = *stores[1];

  ThreadPool pool(kPoolThreads);
  UpdateIngestor ingestor(PipelineIngestorConfig());
  EpochCoordinator epochs;
  TemporalEdgeLog log;
  MicroBatcher batcher(&live, &pool, &ingestor, &epochs, &log);

  const std::size_t samples = (n + kLatencyEvery - 1) / kLatencyEvery;
  std::vector<std::int64_t> offered_at(samples, 0);
  std::vector<double> visible_ms(samples, 0.0);
  std::size_t stamped = 0;
  std::atomic<bool> producer_done{false};
  SpanLog consumer_log("consumer");

  std::thread consumer([&] {
    auto stamp = [&] {
      const std::int64_t now = NowNs();
      const std::uint64_t applied = batcher.applied_watermark();
      while (stamped < samples && stamped * kLatencyEvery + 1 <= applied) {
        visible_ms[stamped] =
            static_cast<double>(now - offered_at[stamped]) / 1e6;
        ++stamped;
      }
    };
    std::uint64_t pump_id = 0;
    while (true) {
      const bool done = producer_done.load(std::memory_order_acquire);
      const std::int64_t t0 = NowNs();
      const std::size_t got = batcher.PumpOnce();
      if (got > 0) {
        if (opt.trace) {
          consumer_log.AddRoot("pipeline.pump", t0, NowNs(), ++pump_id);
        }
        stamp();
      } else if (done && ingestor.QueueDepth() == 0) {
        break;
      } else {
        std::this_thread::yield();
      }
    }
    const std::int64_t t0 = NowNs();
    batcher.Flush();
    if (opt.trace) consumer_log.AddRoot("pipeline.flush", t0, NowNs(), 0);
    stamp();
  });

  // Producer (this thread): always the whole stream, however long it
  // takes, so every run measures the same work (--seconds does not cut it;
  // run.py's timeout guards a runaway run).
  const MicroBatcherStats batcher0 = batcher.Stats();
  const std::int64_t start = NowNs();
  std::size_t offered = 0;
  std::uint64_t offer_failures = 0;
  std::uint64_t last_ok_ts = 0;
  double offer_ms = 0.0;
  for (; offered < n; ++offered) {
    if (offered % kLatencyEvery == 0) {
      offered_at[offered / kLatencyEvery] = NowNs();
    }
    const std::int64_t t0 = opt.trace ? NowNs() : 0;
    const Status st = ingestor.Offer(stream[offered]);
    if (opt.trace) offer_ms += static_cast<double>(NowNs() - t0) / 1e6;
    if (st.ok()) {
      last_ok_ts = stream[offered].timestamp;
    } else {
      ++offer_failures;
    }
  }
  producer_done.store(true, std::memory_order_release);
  consumer.join();
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  const MicroBatcherStats batcher1 = batcher.Stats();

  result.attempted = offered;
  result.failed = offer_failures + batcher1.log_rejected;
  const MemoryBreakdown mem = live.TopologyMemory();
  result.e2e.emplace_back("visible_ms.p50", Percentile(visible_ms, 50));
  result.e2e.emplace_back("visible_ms.p99", Percentile(visible_ms, 99));
  result.e2e.emplace_back("ingest_updates_per_s",
                          static_cast<double>(offered) / wall_s);
  result.e2e.emplace_back("bytes_per_edge",
                          static_cast<double>(mem.Total()) /
                              static_cast<double>(live.NumEdges()));
  result.counts.insert(
      result.counts.end(),
      {{"updates_offered", static_cast<double>(offered)},
       {"edges_end", static_cast<double>(live.NumEdges())},
       {"micro_batches",
        static_cast<double>(batcher1.batches_applied -
                            batcher0.batches_applied)},
       {"latency_samples", static_cast<double>(visible_ms.size())}});

  // Correctness: the pipeline's end state equals a sequential replay of the
  // stream on the same base graph.
  result.Check("ingest.offers_accepted", offer_failures == 0,
               std::to_string(offer_failures) + " offers refused");
  result.Check("ingest.all_applied",
               batcher.applied_watermark() == last_ok_ts &&
                   stamped == visible_ms.size(),
               "applied watermark " +
                   std::to_string(batcher.applied_watermark()) +
                   " vs last offered " + std::to_string(last_ok_ts));
  result.Check("ingest.no_log_rejects",
               batcher1.log_rejected == 0 && batcher1.invalid_dropped == 0,
               std::to_string(batcher1.log_rejected) + " WAL rejects, " +
                   std::to_string(batcher1.invalid_dropped) + " invalid");
  for (std::size_t i = 0; i < offered; ++i) replay.Apply(stream[i].update);
  result.Check("ingest.replay_edge_count",
               live.NumEdges() == replay.NumEdges(),
               std::to_string(live.NumEdges()) + " vs replay " +
                   std::to_string(replay.NumEdges()));
  Xoshiro256 pick(opt.seed ^ 0xC4EC);
  std::size_t row_mismatches = 0;
  for (std::size_t k = 0; k < kCheckedHot + kCheckedRandom; ++k) {
    const std::size_t rank = k < kCheckedHot && k < input.by_degree.size()
                                 ? k
                                 : pick.NextUint64(input.by_degree.size());
    const VertexId v = input.by_degree[rank];
    if (!SameRow(live, replay, v)) ++row_mismatches;
  }
  result.Check("ingest.replay_rows", row_mismatches == 0,
               std::to_string(row_mismatches) + " neighbour rows differ");
  std::string invariant_error;
  result.Check("ingest.store_invariants",
               live.topology().CheckAllInvariants(&invariant_error),
               invariant_error);

  if (opt.trace) {
    const std::vector<double> pump = consumer_log.DurationsMs("pipeline.pump");
    const double ingested = static_cast<double>(batcher1.updates_ingested -
                                                batcher0.updates_ingested);
    const double batches = static_cast<double>(batcher1.batches_applied -
                                               batcher0.batches_applied);
    double busy_ms = Sum(pump);
    for (double ms : consumer_log.DurationsMs("pipeline.flush")) busy_ms += ms;
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
        {"pipeline.consumer_busy_share", busy_ms / (wall_s * 1e3)},
        // The consumer's only layer calls are the pumps.
        {"trace.accounted_share", busy_ms / (wall_s * 1e3)},
        {"storage.topology_bytes", static_cast<double>(mem.topology_bytes)},
        {"storage.index_bytes", static_cast<double>(mem.index_bytes)},
    };
    result.span_logs.push_back(std::move(consumer_log));
  }
  return result;
}

}  // namespace perfbench
