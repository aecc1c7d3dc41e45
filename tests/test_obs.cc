// MetricRegistry / exporter tests (DESIGN.md §15, docs/observability.md):
// idempotent registration with normalized labels, race-free sorted
// snapshots, cross-registry MergeFrom, the Prometheus/JSON exporters, and
// the end-to-end contract that each subsystem's series land in the
// registry it was given, with the exact counts its workload implies.
// Labels: obs.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/thread_pool.h"
#include "dist/cluster.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/epoch_coordinator.h"
#include "pipeline/micro_batcher.h"
#include "pipeline/update_ingestor.h"
#include "serve/server.h"
#include "storage/graph_store.h"
#include "metric_read.h"

namespace platod2gl {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Label;
using obs::Labels;
using obs::MetricKind;
using obs::MetricPoint;
using obs::MetricRegistry;
using obs::RegistrySnapshot;

// ---------------------------------------------------------------------------
// Registration semantics.
// ---------------------------------------------------------------------------

TEST(RegistryTest, RegistrationIsIdempotent) {
  MetricRegistry reg;
  Counter* a = reg.RegisterCounter("pd2gl_test_total");
  Counter* b = reg.RegisterCounter("pd2gl_test_total");
  EXPECT_EQ(a, b) << "same (name, labels) must return the same instance";
  EXPECT_EQ(reg.NumSeries(), 1u);

  Counter* labelled =
      reg.RegisterCounter("pd2gl_test_total", {{"shard", "0"}});
  EXPECT_NE(labelled, a) << "labels discriminate series";
  EXPECT_EQ(reg.NumSeries(), 2u);

  a->Add(3);
  EXPECT_EQ(b->Value(), 3u);
  EXPECT_EQ(labelled->Value(), 0u);
}

TEST(RegistryTest, LabelOrderIsNormalized) {
  MetricRegistry reg;
  Counter* x =
      reg.RegisterCounter("pd2gl_test_x", {{"b", "2"}, {"a", "1"}});
  Counter* y =
      reg.RegisterCounter("pd2gl_test_x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(x, y);
  EXPECT_EQ(reg.NumSeries(), 1u);

  // Snapshot lookups are order-independent too.
  x->Add(7);
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_test_x", {{"b", "2"}, {"a", "1"}}), 7u);
  EXPECT_EQ(snap.Value("pd2gl_test_x", {{"a", "1"}, {"b", "2"}}), 7u);
}

// ---------------------------------------------------------------------------
// Snapshots: sorted, queryable, race-free copies.
// ---------------------------------------------------------------------------

TEST(RegistryTest, SnapshotIsSortedAndQueryable) {
  MetricRegistry reg;
  reg.RegisterCounter("pd2gl_b_total")->Add(2);
  reg.RegisterCounter("pd2gl_a_total")->Add(1);
  reg.RegisterGauge("pd2gl_depth")->Set(9);
  reg.RegisterCounter("pd2gl_a_total", {{"shard", "1"}})->Add(4);

  const RegistrySnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.points.size(), 4u);
  for (std::size_t i = 1; i < snap.points.size(); ++i) {
    EXPECT_LE(snap.points[i - 1].name, snap.points[i].name)
        << "snapshot must sort by name";
  }
  EXPECT_EQ(snap.Value("pd2gl_a_total"), 1u);
  EXPECT_EQ(snap.Value("pd2gl_a_total", {{"shard", "1"}}), 4u);
  EXPECT_EQ(snap.Value("pd2gl_depth"), 9u);
  EXPECT_EQ(snap.Value("pd2gl_missing"), 0u) << "absent series reads as 0";
  EXPECT_EQ(snap.Find("pd2gl_missing"), nullptr);

  // The snapshot is a copy: later increments don't retro-edit it.
  reg.RegisterCounter("pd2gl_a_total")->Add(100);
  EXPECT_EQ(snap.Value("pd2gl_a_total"), 1u);
  EXPECT_EQ(reg.Snapshot().Value("pd2gl_a_total"), 101u);
}

TEST(RegistryTest, SumAcrossLabelsFoldsPerShardSeries) {
  MetricRegistry reg;
  for (int s = 0; s < 3; ++s) {
    reg.RegisterCounter("pd2gl_shard_work", {{"shard", std::to_string(s)}})
        ->Add(static_cast<std::uint64_t>(s + 1));
  }
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.SumAcrossLabels("pd2gl_shard_work"), 6u);
  EXPECT_EQ(snap.SumAcrossLabels("pd2gl_absent"), 0u);
}

TEST(RegistryTest, CheckedReadsFailOnAnAbsentSeries) {
  // The tests' registry reads (metric_read.h) must not turn a misspelled
  // name into a silent 0 the way Value / SumAcrossLabels do.
  MetricRegistry reg;
  reg.RegisterCounter("pd2gl_shard_work", {{"shard", "0"}})->Add(2);
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(MetricValue(snap, "pd2gl_shard_work", {{"shard", "0"}}), 2u);
  EXPECT_EQ(MetricSum(snap, "pd2gl_shard_work"), 2u);
  EXPECT_NONFATAL_FAILURE(MetricValue(snap, "pd2gl_shard_wrok"),
                          "pd2gl_shard_wrok");
  EXPECT_NONFATAL_FAILURE(MetricValue(snap, "pd2gl_shard_work"),
                          "pd2gl_shard_work");  // exists only labelled
  EXPECT_NONFATAL_FAILURE(MetricSum(snap, "pd2gl_shard_wrok"),
                          "pd2gl_shard_wrok");
}

TEST(RegistryTest, ExternalSeriesRideTheSameExportPath) {
  // Borrowed series: the metric objects live in the subsystem (the
  // SampleCache pattern), the registry only exports them.
  Counter hits;
  LatencyHistogram lat;
  MetricRegistry reg;
  reg.RegisterExternalCounter("pd2gl_ext_hits", {}, &hits);
  reg.RegisterExternalHistogram("pd2gl_ext_nanos", {}, &lat);

  hits.Add(5);
  lat.Record(1000);
  lat.Record(2000);

  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("pd2gl_ext_hits"), 5u);
  EXPECT_EQ(snap.Hist("pd2gl_ext_nanos").Count(), 2u);
}

// ---------------------------------------------------------------------------
// MergeFrom: exporting several subsystem registries as one page.
// ---------------------------------------------------------------------------

TEST(RegistryTest, MergeFromSumsMatchesAndAppendsRest) {
  MetricRegistry a, b;
  a.RegisterCounter("pd2gl_shared_total")->Add(2);
  b.RegisterCounter("pd2gl_shared_total")->Add(3);
  a.RegisterHistogram("pd2gl_shared_nanos")->Record(100);
  b.RegisterHistogram("pd2gl_shared_nanos")->Record(200);
  a.RegisterGauge("pd2gl_depth")->Set(1);
  b.RegisterGauge("pd2gl_depth")->Set(8);
  b.RegisterCounter("pd2gl_only_b_total")->Add(7);

  RegistrySnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  EXPECT_EQ(merged.Value("pd2gl_shared_total"), 5u) << "counters sum";
  EXPECT_EQ(merged.Hist("pd2gl_shared_nanos").Count(), 2u)
      << "histogram buckets merge";
  EXPECT_EQ(merged.Value("pd2gl_depth"), 8u) << "gauges take the other side";
  EXPECT_EQ(merged.Value("pd2gl_only_b_total"), 7u) << "unmatched appended";
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(ExportTest, PrometheusTextRendersFamiliesLabelsAndBuckets) {
  MetricRegistry reg;
  reg.RegisterCounter("pd2gl_reqs_total", {{"tenant", "3"}})->Add(9);
  reg.RegisterGauge("pd2gl_queue_depth")->Set(4);
  reg.RegisterHistogram("pd2gl_lat_nanos")->Record(1500);

  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE pd2gl_reqs_total counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("pd2gl_reqs_total{tenant=\"3\"} 9"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE pd2gl_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("pd2gl_queue_depth 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pd2gl_lat_nanos histogram"), std::string::npos);
  EXPECT_NE(text.find("pd2gl_lat_nanos_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("pd2gl_lat_nanos_count 1"), std::string::npos);
}

TEST(ExportTest, JsonCarriesEverySeries) {
  MetricRegistry reg;
  reg.RegisterCounter("pd2gl_reqs_total", {{"tenant", "3"}})->Add(9);
  reg.RegisterHistogram("pd2gl_lat_nanos")->Record(1500);

  const std::string json = obs::ToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"pd2gl_reqs_total\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
  EXPECT_NE(json.find("\"pd2gl_lat_nanos\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Subsystem contract: every series lands in the registry it was given.
// ---------------------------------------------------------------------------

TEST(SubsystemRegistryTest, ServerStatsMirrorItsRegistry) {
  ClusterConfig ccfg;
  ccfg.num_shards = 2;
  GraphCluster cluster(ccfg);
  for (VertexId v = 0; v < 50; ++v) {
    cluster.Apply({UpdateKind::kInsert, Edge{v, (v + 1) % 50, 1.0, 0}});
  }
  EpochCoordinator epochs;
  serve::ServeConfig cfg;
  cfg.batcher.max_batch = 2;
  serve::GraphServer server(&cluster, &epochs, cfg);

  for (std::uint64_t i = 0; i < 4; ++i) {
    serve::QueryRequest req;
    req.tenant = i % 2;
    req.request_id = i;
    req.rng_seed = 100 + i;
    req.seeds = {i, i + 1};
    req.plan.Sample(2);
    ASSERT_TRUE(server.Submit(req, 0).ok());
  }
  server.Drain(0);

  // 4 requests, max_batch 2: two batches, each one sample round.
  const RegistrySnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(MetricValue(snap, "pd2gl_serve_submitted"), 4u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_serve_completed"), 4u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_serve_batches"), 2u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_serve_rpc_rounds"), 2u);
  // The admission and batcher series live in the SAME registry — one
  // page tells the whole serving story.
  EXPECT_EQ(MetricValue(snap, "pd2gl_admission_admitted"), 4u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_batcher_enqueued"), 4u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_batcher_dispatched"), 4u);
  // Stats() is filled from the same counters.
  const serve::ServeStats s = server.Stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.ok, 4u);
  EXPECT_EQ(s.batched_requests, 4u);
  // The latency histograms are registered too (global + per-tenant).
  EXPECT_EQ(snap.Hist("pd2gl_serve_latency_nanos").Count(),
            server.latency().Count());
  EXPECT_EQ(
      snap.Hist("pd2gl_serve_tenant_latency_nanos", {{"tenant", "0"}})
          .Count(),
      server.tenant_latency(0)->Count());
}

TEST(SubsystemRegistryTest, ClusterPerShardSeriesAccumulate) {
  ClusterConfig ccfg;
  ccfg.num_shards = 4;
  GraphCluster cluster(ccfg);
  for (VertexId v = 0; v < 100; ++v) {
    for (std::uint64_t k = 1; k <= 4; ++k) {
      cluster.Apply(
          {UpdateKind::kInsert, Edge{v, (v * 3 + k) % 100, 1.0, 0}});
    }
  }
  std::vector<VertexId> seeds(32);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i * 3;
  cluster.SampleNeighbors(seeds, /*fanout=*/4, /*weighted=*/true,
                          /*rng_seed=*/7);

  const RegistrySnapshot snap = cluster.metrics().Snapshot();
  // Fault-free: one RPC per Apply, plus one per shard the sample hit.
  std::size_t shards_hit = 0;
  for (const MetricPoint& p : snap.points) {
    if (p.name == "pd2gl_shard_sample_seeds" && p.value > 0) ++shards_hit;
  }
  EXPECT_EQ(MetricValue(snap, "pd2gl_cluster_rpcs"), 400u + shards_hit);
  EXPECT_EQ(MetricSum(snap, "pd2gl_shard_sample_seeds"), seeds.size())
      << "per-shard seed counts fold back to the request total";
  // Every shard that received seeds has its own labelled series.
  EXPECT_GT(shards_hit, 1u) << "32 seeds over 4 shards hit several shards";
}

TEST(SubsystemRegistryTest, ShardCacheSeriesFollowTheLiveStore) {
  ClusterConfig ccfg;
  ccfg.num_shards = 2;
  GraphCluster cluster(ccfg);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < 20; ++v) {
    cluster.Apply({UpdateKind::kInsert, Edge{v, v + 1, 1.0, 0}});
    seeds.push_back(v);
  }
  cluster.SampleNeighbors(seeds, /*fanout=*/2, /*weighted=*/true,
                          /*rng_seed=*/7);
  const Labels shard0{{"shard", "0"}};
  const Labels shard1{{"shard", "1"}};
  ASSERT_GT(MetricValue(cluster.metrics(), "pd2gl_sample_cache_misses", shard0),
            0u);
  const std::uint64_t shard1_misses =
      MetricValue(cluster.metrics(), "pd2gl_sample_cache_misses", shard1);
  ASSERT_GT(shard1_misses, 0u);

  // Crash and recovery each replace shard 0's store, and its cache with
  // it: the series must read the live cache, never the destroyed one.
  cluster.CrashShard(0);
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_sample_cache_misses", shard0),
            0u);
  ASSERT_TRUE(cluster.RecoverShard(0).ok());
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_sample_cache_misses", shard0),
            0u);
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_sample_cache_misses", shard1),
            shard1_misses);
}

TEST(SubsystemRegistryTest, PipelineSharesOneRegistry) {
  // Ingestor and micro-batcher registered into ONE registry: the whole
  // ingest pipeline exports as a single page.
  MetricRegistry reg;
  GraphStore graph;
  ThreadPool pool(2);
  EpochCoordinator epochs;
  UpdateIngestor ingestor(IngestorConfig{}, &reg);
  MicroBatcher batcher(&graph, &pool, &ingestor, &epochs, /*log=*/nullptr,
                       MicroBatcherConfig{}, &reg);

  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        ingestor.OfferInsert(i + 1, Edge{i, i + 1, 1.0, 0}).ok());
  }
  batcher.Flush();

  // Ten distinct edges: nothing coalesces, and the first forced pump
  // drains all ten into one micro-batch.
  const RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(MetricValue(snap, "pd2gl_ingest_accepted"), 10u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_micro_batcher_updates_ingested"), 10u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_micro_batcher_updates_applied"), 10u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_micro_batcher_coalesced"), 0u);
  EXPECT_EQ(MetricValue(snap, "pd2gl_micro_batcher_batches_applied"), 1u);
  // MicroBatcher::Stats() is filled from the same counters.
  const MicroBatcherStats bs = batcher.Stats();
  EXPECT_EQ(bs.updates_ingested, 10u);
  EXPECT_EQ(bs.batches_applied, 1u);
}

}  // namespace
}  // namespace platod2gl
