// Chaos suite: fault injection, retry/backoff/deadline semantics,
// degraded sampling and WAL-based shard recovery (DESIGN.md §9,
// docs/fault_tolerance.md). The headline guarantees pinned here:
//
//   * transient faults within the retry budget are INVISIBLE — sampling
//     results are bit-identical to a fault-free run and no seed degrades;
//   * faults past the budget degrade per seed (flagged empty ranges),
//     never throw and never hang;
//   * a crashed shard recovered from checkpoint + WAL replay matches a
//     never-crashed control cluster exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "dist/cluster.h"
#include "dist/fault_injector.h"
#include "dist/remote_sampler.h"
#include "dist/shard.h"
#include "dist/wire.h"
#include "metric_read.h"

namespace platod2gl {
namespace {

// --- FaultInjector unit tests ---------------------------------------------

FaultConfig NoisyConfig() {
  FaultConfig f;
  f.failure_prob = 0.15;
  f.timeout_prob = 0.10;
  f.corrupt_prob = 0.10;
  f.slow_prob = 0.10;
  return f;
}

TEST(FaultInjectorTest, FaultSequenceIsDeterministicPerShard) {
  FaultInjector a(NoisyConfig(), 4);
  FaultInjector b(NoisyConfig(), 4);
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a.NextFault(shard), b.NextFault(shard))
          << "shard " << shard << " draw " << i;
    }
  }
}

TEST(FaultInjectorTest, ShardsDrawIndependentStreams) {
  // Draining shard 0 must not advance shard 1's sequence: replay shard 1
  // against a fresh injector where shard 0 was never touched.
  FaultInjector mixed(NoisyConfig(), 2);
  for (int i = 0; i < 100; ++i) mixed.NextFault(0);
  std::vector<FaultInjector::Fault> shard1;
  for (int i = 0; i < 100; ++i) shard1.push_back(mixed.NextFault(1));

  FaultInjector clean(NoisyConfig(), 2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(clean.NextFault(1), shard1[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(FaultInjectorTest, PassiveWhenAllProbabilitiesZero) {
  FaultInjector quiet(FaultConfig{}, 2);
  EXPECT_TRUE(quiet.PassiveExceptCrashes());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(quiet.NextFault(0), FaultInjector::Fault::kNone);
  }
  EXPECT_FALSE(FaultInjector(NoisyConfig(), 2).PassiveExceptCrashes());
}

TEST(FaultInjectorTest, CrashLifecycle) {
  FaultInjector inj(FaultConfig{}, 3);
  EXPECT_EQ(inj.NumCrashed(), 0u);
  inj.CrashShard(1);
  EXPECT_TRUE(inj.IsCrashed(1));
  EXPECT_FALSE(inj.IsCrashed(0));
  EXPECT_EQ(inj.NumCrashed(), 1u);
  inj.RestoreShard(1);
  EXPECT_FALSE(inj.IsCrashed(1));
  EXPECT_EQ(inj.NumCrashed(), 0u);
}

TEST(FaultInjectorTest, CorruptBytesAlwaysRejectedByHardenedDecoders) {
  // CorruptBytes promises structural damage; the hardened decoders must
  // reject every single corruption, whatever mode the draw picks.
  NeighborBatch resp;
  resp.offsets = {0, 3, 3, 5};
  resp.neighbors = {10, 11, 12, 20, 21};
  const std::string clean = wire::EncodeSampleResponse(resp);

  FaultInjector inj(NoisyConfig(), 1);
  for (int i = 0; i < 400; ++i) {
    std::string damaged = clean;
    inj.CorruptBytes(0, &damaged);
    ASSERT_NE(damaged, clean) << "corruption must change the bytes";
    NeighborBatch decoded;
    ASSERT_EQ(wire::DecodeSampleResponse(damaged, &decoded),
              wire::DecodeResult::kMalformed)
        << "iteration " << i << ": structurally damaged response decoded";
  }
}

// --- Cluster-level transient-fault tests -----------------------------------

/// Insert degree-5 neighbourhoods for vertices 1..100 so weighted
/// sampling has real randomness to get wrong under faults.
void PopulateFanout(GraphCluster* c) {
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 100; ++s) {
    for (VertexId k = 0; k < 5; ++k) {
      batch.push_back({UpdateKind::kInsert,
                       Edge{s, s * 10 + k, 1.0 + static_cast<double>(k), 0}});
    }
  }
  ASSERT_TRUE(c->ApplyBatch(batch).ok());
}

ClusterConfig FaultyConfig(FaultConfig fault) {
  ClusterConfig cfg;
  cfg.num_shards = 4;
  cfg.fault = fault;
  cfg.retry.max_attempts = 6;
  cfg.retry.deadline_us = 100'000'000;  // generous: the budget is attempts
  return cfg;
}

TEST(ClusterFaultTest, TransientFaultsWithinBudgetAreInvisible) {
  GraphCluster control(FaultyConfig(FaultConfig{}));  // no faults
  GraphCluster faulty(FaultyConfig(NoisyConfig()));
  PopulateFanout(&control);
  PopulateFanout(&faulty);
  ASSERT_EQ(control.NumEdges(), faulty.NumEdges());

  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 100; ++s) seeds.push_back(s);
  for (std::uint64_t round = 0; round < 20; ++round) {
    const SampleReport want =
        control.SampleNeighborsChecked(seeds, 3, /*weighted=*/true, round);
    const SampleReport got =
        faulty.SampleNeighborsChecked(seeds, 3, /*weighted=*/true, round);
    // Retries re-derive the per-shard RNG stream, so the faulty run is
    // bit-identical to the fault-free control.
    ASSERT_EQ(got.batch.offsets, want.batch.offsets) << "round " << round;
    ASSERT_EQ(got.batch.neighbors, want.batch.neighbors) << "round " << round;
    ASSERT_TRUE(got.complete());
  }

  // The faults really happened — they were just absorbed by retries.
  const obs::RegistrySnapshot st = faulty.metrics().Snapshot();
  EXPECT_GT(MetricValue(st, "pd2gl_cluster_transient_faults"), 0u);
  EXPECT_GT(MetricValue(st, "pd2gl_cluster_retries"), 0u);
  EXPECT_EQ(MetricValue(st, "pd2gl_cluster_degraded_seeds"), 0u);
  EXPECT_EQ(MetricValue(st, "pd2gl_cluster_deadline_hits"), 0u);
  EXPECT_GT(MetricValue(st, "pd2gl_cluster_rpcs"),
            MetricValue(control.metrics(), "pd2gl_cluster_rpcs"));
  // Slow RPCs and retries both inflate virtual time, never wall time.
  EXPECT_GT(MetricValue(st, "pd2gl_cluster_virtual_network_us"),
            MetricValue(control.metrics(), "pd2gl_cluster_virtual_network_us"));
}

TEST(ClusterFaultTest, CorruptResponsesAreDetectedAndRetried) {
  FaultConfig fault;
  fault.corrupt_prob = 0.5;
  GraphCluster control(FaultyConfig(FaultConfig{}));
  // Half of all responses are damaged, so 6 attempts occasionally run out
  // (0.5^6 per logical RPC); a deeper budget keeps every seed served.
  ClusterConfig faulty_cfg = FaultyConfig(fault);
  faulty_cfg.retry.max_attempts = 16;
  GraphCluster faulty(faulty_cfg);
  PopulateFanout(&control);
  PopulateFanout(&faulty);

  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 100; ++s) seeds.push_back(s);
  for (std::uint64_t round = 0; round < 10; ++round) {
    const NeighborBatch want = control.SampleNeighbors(seeds, 3, true, round);
    const NeighborBatch got = faulty.SampleNeighbors(seeds, 3, true, round);
    ASSERT_EQ(got.offsets, want.offsets);
    ASSERT_EQ(got.neighbors, want.neighbors);
  }
  // The damaged responses went through the real codec and were dropped
  // there, not waved through.
  EXPECT_GT(MetricValue(faulty.metrics(), "pd2gl_cluster_corrupt_responses"),
            0u);
  EXPECT_GT(MetricValue(faulty.metrics(), "pd2gl_cluster_retries"), 0u);
  EXPECT_EQ(MetricValue(faulty.metrics(), "pd2gl_cluster_degraded_seeds"), 0u);
}

TEST(ClusterFaultTest, DeadlineDegradesSeedsWithoutThrowingOrHanging) {
  FaultConfig fault;
  fault.failure_prob = 1.0;  // shard is effectively unreachable
  ClusterConfig cfg = FaultyConfig(fault);
  cfg.retry.max_attempts = 100;     // attempts won't stop it...
  cfg.retry.deadline_us = 2'000;    // ...the deadline will
  GraphCluster cluster(cfg);
  const SampleReport report =
      cluster.SampleNeighborsChecked({1, 2, 3, 4, 5}, 4, true, 7);
  ASSERT_EQ(report.batch.NumSeeds(), 5u);
  ASSERT_EQ(report.seed_status.size(), 5u);
  EXPECT_EQ(report.degraded_seeds, 5u);
  EXPECT_FALSE(report.complete());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.seed_status[i], SeedStatus::kDegraded);
    EXPECT_EQ(report.batch.offsets[i + 1], report.batch.offsets[i])
        << "degraded seeds must come back as the empty marker";
  }
  EXPECT_GT(MetricValue(cluster.metrics(), "pd2gl_cluster_deadline_hits"), 0u);
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_cluster_degraded_seeds"), 5u);
}

TEST(ClusterFaultTest, ApplyBatchReportsLostUpdatesPastBudget) {
  FaultConfig fault;
  fault.failure_prob = 1.0;
  ClusterConfig cfg = FaultyConfig(fault);
  cfg.retry.max_attempts = 3;
  GraphCluster cluster(cfg);
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 20; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 100, 1.0, 0}});
  }
  const Status s = cluster.ApplyBatch(batch);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_cluster_lost_updates"), 20u);
  EXPECT_EQ(cluster.NumEdges(), 0u);  // nothing half-applied
}

TEST(ClusterFaultTest, ApplyBatchSurvivesTransientFaults) {
  GraphCluster control(FaultyConfig(FaultConfig{}));
  GraphCluster faulty(FaultyConfig(NoisyConfig()));
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 500; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
  }
  ASSERT_TRUE(control.ApplyBatch(batch).ok());
  ASSERT_TRUE(faulty.ApplyBatch(batch).ok());
  // Exactly-once: retries never double-applied an update.
  EXPECT_EQ(faulty.NumEdges(), control.NumEdges());
  for (VertexId s = 1; s <= 500; ++s) {
    ASSERT_EQ(faulty.Degree(s), 1u) << s;
  }
  EXPECT_EQ(MetricValue(faulty.metrics(), "pd2gl_cluster_lost_updates"), 0u);
}

TEST(ClusterFaultTest, CrashedShardDegradesOnlyItsOwnSeeds) {
  GraphCluster cluster(FaultyConfig(FaultConfig{}));
  PopulateFanout(&cluster);

  const std::size_t victim = cluster.partitioner().ShardOf(1);
  cluster.CrashShard(victim);
  EXPECT_EQ(cluster.fault_injector().NumCrashed(), 1u);

  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 100; ++s) seeds.push_back(s);
  const SampleReport report = cluster.SampleNeighborsChecked(seeds, 3, true, 9);
  ASSERT_EQ(report.batch.NumSeeds(), seeds.size());
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const bool on_victim = cluster.partitioner().ShardOf(seeds[i]) == victim;
    if (on_victim) {
      ++degraded;
      EXPECT_EQ(report.seed_status[i], SeedStatus::kDegraded);
      EXPECT_EQ(report.batch.offsets[i + 1], report.batch.offsets[i]);
    } else {
      EXPECT_EQ(report.seed_status[i], SeedStatus::kOk);
      // Live shards keep serving full fanout, unperturbed by the crash.
      EXPECT_EQ(report.batch.offsets[i + 1] - report.batch.offsets[i], 3u);
    }
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(report.degraded_seeds, degraded);
  EXPECT_GT(MetricValue(cluster.metrics(), "pd2gl_cluster_crash_rejections"),
            0u);
}

// --- Attribute gather under faults ------------------------------------------

/// Feature rows [v, v + 0.5, -v] for ids 1..60, written straight onto the
/// owning shards (no RPC, so control and faulty clusters hold the same).
void PopulateFeatures(GraphCluster* c) {
  for (VertexId v = 1; v <= 60; ++v) {
    const float f = static_cast<float>(v);
    c->shard(c->partitioner().ShardOf(v))
        .store()
        .attributes()
        .SetFeatures(v, {f, f + 0.5f, -f});
  }
}

std::vector<GatherWorkItem> GatherItems(const std::vector<VertexId>& a,
                                        const std::vector<VertexId>& b) {
  return {GatherWorkItem{&a}, GatherWorkItem{&b}};
}

TEST(ClusterGatherFaultTest, CrashedShardRowsComeBackAsFlaggedZeros) {
  GraphCluster healthy(FaultyConfig(FaultConfig{}));
  GraphCluster crashed(FaultyConfig(FaultConfig{}));
  PopulateFeatures(&healthy);
  PopulateFeatures(&crashed);
  const std::size_t victim = crashed.partitioner().ShardOf(1);
  crashed.CrashShard(victim);

  std::vector<VertexId> a;
  std::vector<VertexId> b;
  for (VertexId v = 1; v <= 30; ++v) a.push_back(v);
  for (VertexId v = 20; v <= 60; ++v) b.push_back(v);
  const MultiGatherReport want = healthy.GatherMany(GatherItems(a, b));
  const MultiGatherReport got = crashed.GatherMany(GatherItems(a, b));
  ASSERT_EQ(want.dim, 3u);
  ASSERT_EQ(got.dim, 3u);
  ASSERT_EQ(got.reports.size(), 2u);
  for (std::size_t w = 0; w < 2; ++w) {
    const std::vector<VertexId>& ids = w == 0 ? a : b;
    const GatherReport& g = got.reports[w];
    ASSERT_EQ(g.features.size(), ids.size() * 3);
    ASSERT_EQ(g.row_status.size(), ids.size());
    std::uint64_t on_victim = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::vector<float> row(g.features.begin() + 3 * i,
                                   g.features.begin() + 3 * i + 3);
      if (crashed.partitioner().ShardOf(ids[i]) == victim) {
        ++on_victim;
        EXPECT_EQ(g.row_status[i], SeedStatus::kDegraded) << ids[i];
        EXPECT_EQ(row, std::vector<float>(3, 0.0f)) << ids[i];
      } else {
        EXPECT_EQ(g.row_status[i], SeedStatus::kOk) << ids[i];
        const std::vector<float> healthy_row(
            want.reports[w].features.begin() + 3 * i,
            want.reports[w].features.begin() + 3 * i + 3);
        EXPECT_EQ(row, healthy_row) << ids[i];
      }
    }
    EXPECT_GT(on_victim, 0u);
    EXPECT_EQ(g.degraded_rows, on_victim) << "item " << w;
    EXPECT_EQ(want.reports[w].degraded_rows, 0u);
  }
  EXPECT_GT(MetricValue(crashed.metrics(), "pd2gl_cluster_crash_rejections"),
            0u);
}

TEST(ClusterGatherFaultTest, TransientFaultsWithinBudgetAreInvisible) {
  GraphCluster control(FaultyConfig(FaultConfig{}));
  GraphCluster faulty(FaultyConfig(NoisyConfig()));
  PopulateFeatures(&control);
  PopulateFeatures(&faulty);

  std::vector<VertexId> a;
  std::vector<VertexId> b;
  for (VertexId v = 1; v <= 60; v += 2) a.push_back(v);
  for (VertexId v = 60; v >= 1; v -= 3) b.push_back(v);
  for (int round = 0; round < 20; ++round) {
    const MultiGatherReport want = control.GatherMany(GatherItems(a, b));
    const MultiGatherReport got = faulty.GatherMany(GatherItems(a, b));
    ASSERT_EQ(got.dim, want.dim) << "round " << round;
    for (std::size_t w = 0; w < 2; ++w) {
      // Bit-identical rows: float vectors compared element-exactly.
      ASSERT_EQ(got.reports[w].features, want.reports[w].features)
          << "round " << round << " item " << w;
      ASSERT_EQ(got.reports[w].degraded_rows, 0u);
      for (const SeedStatus st : got.reports[w].row_status) {
        ASSERT_EQ(st, SeedStatus::kOk);
      }
    }
  }
  EXPECT_GT(MetricValue(faulty.metrics(), "pd2gl_cluster_transient_faults"),
            0u);
  EXPECT_GT(MetricValue(faulty.metrics(), "pd2gl_cluster_retries"), 0u);
  EXPECT_EQ(MetricValue(faulty.metrics(), "pd2gl_cluster_deadline_hits"), 0u);
}

// --- RemoteSubgraphSampler resilience --------------------------------------

TEST(RemoteSamplerFaultTest, RetryDeterminismAcrossFaultConfigs) {
  // Satellite (d): a fixed seed yields the identical subgraph with faults
  // off and with faults + retries on.
  GraphCluster control(FaultyConfig(FaultConfig{}));
  GraphCluster faulty(FaultyConfig(NoisyConfig()));
  // Two-hop chain structure: s -> s*10+k -> (s*10+k)*10+k.
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 30; ++s) {
    for (VertexId k = 0; k < 4; ++k) {
      const VertexId mid = s * 10 + k;
      batch.push_back({UpdateKind::kInsert, Edge{s, mid, 1.0, 0}});
      batch.push_back({UpdateKind::kInsert, Edge{mid, mid * 10 + k, 1.0, 0}});
    }
  }
  ASSERT_TRUE(control.ApplyBatch(batch).ok());
  ASSERT_TRUE(faulty.ApplyBatch(batch).ok());

  RemoteSubgraphSampler a(&control);
  RemoteSubgraphSampler b(&faulty);
  const std::vector<SubgraphSampler::Hop> hops = {{.fanout = 3},
                                                  {.fanout = 2}};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const RemoteSampleReport want =
        a.SampleWithReport({1, 7, 13, 28}, hops, seed);
    const RemoteSampleReport got =
        b.SampleWithReport({1, 7, 13, 28}, hops, seed);
    ASSERT_EQ(got.subgraph.layers, want.subgraph.layers) << "seed " << seed;
    ASSERT_EQ(got.subgraph.parents, want.subgraph.parents) << "seed " << seed;
    ASSERT_TRUE(got.complete());
    ASSERT_TRUE(want.complete());
  }
  EXPECT_GT(MetricValue(faulty.metrics(), "pd2gl_cluster_retries"), 0u);
  EXPECT_GT(MetricValue(faulty.metrics(), "pd2gl_cluster_transient_faults"),
            0u);
}

TEST(RemoteSamplerFaultTest, UnreachableShardStopsExpansionGracefully) {
  GraphCluster cluster(FaultyConfig(FaultConfig{}));
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 50; ++s) {
    for (VertexId k = 0; k < 3; ++k) {
      batch.push_back({UpdateKind::kInsert, Edge{s, s * 10 + k, 1.0, 0}});
    }
  }
  ASSERT_TRUE(cluster.ApplyBatch(batch).ok());
  cluster.CrashShard(cluster.partitioner().ShardOf(1));

  RemoteSubgraphSampler sampler(&cluster);
  const RemoteSampleReport report = sampler.SampleWithReport(
      {1, 2, 3, 4, 5}, {{.fanout = 2}, {.fanout = 2}}, 3);
  // Seeds always form layer 0 — degradation only prunes expansions.
  ASSERT_EQ(report.subgraph.layers.size(), 3u);
  EXPECT_EQ(report.subgraph.layers[0],
            (std::vector<VertexId>{1, 2, 3, 4, 5}));
  EXPECT_FALSE(report.complete());
  EXPECT_GT(report.degraded_total, 0u);
  ASSERT_EQ(report.degraded_frontier.size(), 2u);
  EXPECT_GT(report.degraded_frontier[0], 0u);
}

// --- Checkpoint + WAL recovery ---------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pd2g_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(RecoveryTest, CheckpointTruncatesCoveredWalPrefix) {
  GraphShard shard;
  for (VertexId s = 1; s <= 50; ++s) {
    shard.Apply({UpdateKind::kInsert, Edge{s, s + 1, 1.0, 0}});
  }
  EXPECT_EQ(shard.wal().size(), 50u);
  ASSERT_TRUE(shard.Checkpoint((dir_ / "s.ckpt").string()).ok());
  EXPECT_TRUE(shard.wal().empty()) << "checkpoint covers the whole log";
  EXPECT_EQ(shard.checkpoint_seq(), 50u);
  shard.Apply({UpdateKind::kInsert, Edge{99, 100, 1.0, 0}});
  EXPECT_EQ(shard.wal().size(), 1u) << "only the post-checkpoint suffix";
  EXPECT_EQ(shard.wal_seq(), 51u);
}

TEST_F(RecoveryTest, CheckpointRefusedWhileCrashed) {
  GraphShard shard;
  shard.Apply({UpdateKind::kInsert, Edge{1, 2, 1.0, 0}});
  shard.Crash();
  const Status s = shard.Checkpoint((dir_ / "s.ckpt").string());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST_F(RecoveryTest, RecoveryWithoutCheckpointReplaysFullWal) {
  GraphShard shard;
  for (VertexId s = 1; s <= 30; ++s) {
    shard.Apply({UpdateKind::kInsert, Edge{s, s + 1, 2.0, 0}});
  }
  shard.Crash();
  EXPECT_EQ(shard.store().NumEdges(), 0u) << "volatile store wiped";
  std::size_t replayed = 0;
  ASSERT_TRUE(shard.Recover(&replayed).ok());
  EXPECT_EQ(replayed, 30u);
  EXPECT_FALSE(shard.crashed());
  EXPECT_EQ(shard.store().NumEdges(), 30u);
  EXPECT_NEAR(*shard.store().EdgeWeight(7, 8), 2.0, 1e-12);
}

TEST_F(RecoveryTest, KillAndRecoverMatchesNeverCrashedControl) {
  // The acceptance test: a cluster that checkpoints, crashes a shard
  // mid-update-stream, keeps taking writes (WAL handoff) and recovers
  // must end up EXACTLY where a never-crashed control cluster is.
  ClusterConfig cfg;
  cfg.num_shards = 4;
  GraphCluster control(cfg);
  GraphCluster victim(cfg);

  auto apply_both = [&](const std::vector<EdgeUpdate>& batch) {
    ASSERT_TRUE(control.ApplyBatch(batch).ok());
    ASSERT_TRUE(victim.ApplyBatch(batch).ok());
  };

  // Phase 1: base graph, then checkpoint the victim.
  std::vector<EdgeUpdate> phase1;
  for (VertexId s = 1; s <= 200; ++s) {
    phase1.push_back({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
    phase1.push_back({UpdateKind::kInsert, Edge{s, s + 2000, 2.0, 0}});
  }
  apply_both(phase1);
  ASSERT_TRUE(victim.CheckpointAll(dir_.string()).ok());

  // Phase 2: post-checkpoint mutations of every kind (these live only in
  // the WALs).
  std::vector<EdgeUpdate> phase2;
  for (VertexId s = 1; s <= 100; ++s) {
    phase2.push_back({UpdateKind::kInsert, Edge{s, s + 3000, 3.0, 0}});
    phase2.push_back({UpdateKind::kInPlaceUpdate, Edge{s, s + 1000, 9.0, 0}});
  }
  for (VertexId s = 101; s <= 150; ++s) {
    phase2.push_back({UpdateKind::kDelete, Edge{s, s + 2000, 0.0, 0}});
  }
  apply_both(phase2);

  // Crash a shard, then keep the update stream flowing: the victim's
  // updates for the dead shard go to its WAL via hinted handoff.
  const std::size_t dead = victim.partitioner().ShardOf(1);
  victim.CrashShard(dead);
  std::vector<EdgeUpdate> phase3;
  for (VertexId s = 1; s <= 200; ++s) {
    phase3.push_back({UpdateKind::kInsert, Edge{s, s + 4000, 4.0, 0}});
  }
  apply_both(phase3);
  EXPECT_GT(MetricValue(victim.metrics(), "pd2gl_cluster_wal_handoffs"), 0u);
  EXPECT_EQ(MetricValue(victim.metrics(), "pd2gl_cluster_lost_updates"), 0u);

  // While down, sampling degrades instead of failing.
  const SampleReport down =
      victim.SampleNeighborsChecked({1, 2, 3, 4}, 3, true, 5);
  EXPECT_GT(down.degraded_seeds, 0u);

  // Recover: checkpoint + WAL replay rebuild the exact state.
  ASSERT_TRUE(victim.RecoverShard(dead).ok());
  EXPECT_EQ(MetricValue(victim.metrics(), "pd2gl_cluster_recoveries"), 1u);
  EXPECT_GT(MetricValue(victim.metrics(), "pd2gl_cluster_replayed_updates"),
            0u);
  EXPECT_EQ(victim.fault_injector().NumCrashed(), 0u);

  ASSERT_EQ(victim.NumEdges(), control.NumEdges());
  for (VertexId s = 1; s <= 200; ++s) {
    ASSERT_EQ(victim.Degree(s), control.Degree(s)) << "vertex " << s;
  }
  // Weight-sensitive check: the in-place updates survived recovery...
  const std::size_t owner1 = victim.partitioner().ShardOf(1);
  EXPECT_NEAR(*victim.shard(owner1).store().EdgeWeight(1, 1001), 9.0, 1e-12);
  // ...and sampling (weighted, so weight-state-sensitive) is bit-identical.
  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 200; ++s) seeds.push_back(s);
  for (std::uint64_t round = 0; round < 5; ++round) {
    const SampleReport want =
        control.SampleNeighborsChecked(seeds, 4, true, round);
    const SampleReport got =
        victim.SampleNeighborsChecked(seeds, 4, true, round);
    ASSERT_EQ(got.batch.offsets, want.batch.offsets) << "round " << round;
    ASSERT_EQ(got.batch.neighbors, want.batch.neighbors) << "round " << round;
    ASSERT_TRUE(got.complete());
  }
}

TEST_F(RecoveryTest, SingleUpdateApplyUsesWalHandoffWhileDown) {
  ClusterConfig cfg;
  cfg.num_shards = 2;
  GraphCluster cluster(cfg);
  const std::size_t dead = cluster.partitioner().ShardOf(42);
  cluster.CrashShard(dead);
  // Apply() to a crashed shard is still OK: durably logged, not lost.
  ASSERT_TRUE(cluster.Apply({UpdateKind::kInsert, Edge{42, 43, 1.0, 0}}).ok());
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_cluster_wal_handoffs"), 1u);
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_cluster_lost_updates"), 0u);
  EXPECT_EQ(cluster.Degree(42), 0u) << "not applied while down";
  ASSERT_TRUE(cluster.RecoverShard(dead).ok());
  EXPECT_EQ(cluster.Degree(42), 1u) << "replayed on recovery";
}

}  // namespace
}  // namespace platod2gl
