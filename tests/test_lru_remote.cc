// LruCache and RemoteSubgraphSampler tests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "dist/remote_sampler.h"
#include "metric_read.h"

namespace platod2gl {
namespace {

TEST(LruCacheTest, BasicPutGet) {
  LruCache<int, std::string> cache(2);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, "one");
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Get(1);      // 1 becomes most recent
  cache.Put(3, 30);  // evicts 2
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, PutRefreshesRecency) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // overwrite: 1 most recent, no eviction
  EXPECT_EQ(cache.size(), 2u);
  cache.Put(3, 30);  // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheTest, HitRateAccounting) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  cache.Get(1);
  cache.Get(1);
  cache.Get(2);  // miss
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(cache.HitRate(), 2.0 / 3.0, 1e-12);
}

TEST(LruCacheTest, CapacityOneChurn) {
  LruCache<int, int> cache(1);
  for (int i = 0; i < 100; ++i) cache.Put(i, i);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get(99), 99);
  EXPECT_EQ(cache.evictions(), 99u);
}

TEST(LruCacheTest, ValuePointerStableWhileCached) {
  LruCache<int, std::vector<int>> cache(8);
  std::vector<int>* p = cache.Put(1, {1, 2, 3});
  cache.Put(2, {4});
  cache.Get(1);  // recency moves must not invalidate the pointer
  EXPECT_EQ(cache.Get(1), p);
  EXPECT_EQ(p->size(), 3u);
}

TEST(RemoteSamplerTest, MatchesLocalSemantics) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  // Distinguishable two-hop chains: s -> s*10 -> s*100.
  std::vector<VertexId> seeds;
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 40; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s * 100, 1.0, 0}});
    batch.push_back(
        {UpdateKind::kInsert, Edge{s * 100, s * 100 + 7, 1.0, 0}});
    seeds.push_back(s);
  }
  cluster.ApplyBatch(batch);

  RemoteSubgraphSampler sampler(&cluster);
  const SampledSubgraph sg =
      sampler.Sample(seeds, {{.fanout = 3}, {.fanout = 2}}, /*seed=*/5);

  ASSERT_EQ(sg.layers.size(), 3u);
  ASSERT_EQ(sg.parents.size(), 2u);
  EXPECT_EQ(sg.layers[1].size(), seeds.size() * 3);
  // Every hop-1 vertex is its parent's unique neighbour.
  for (std::size_t j = 0; j < sg.layers[1].size(); ++j) {
    EXPECT_EQ(sg.layers[1][j], sg.layers[0][sg.parents[0][j]] * 100);
  }
  for (std::size_t j = 0; j < sg.layers[2].size(); ++j) {
    EXPECT_EQ(sg.layers[2][j], sg.layers[1][sg.parents[1][j]] + 7);
  }
}

TEST(RemoteSamplerTest, OneRpcRoundPerHopPerShard) {
  GraphCluster cluster(ClusterConfig{.num_shards = 4});
  std::vector<EdgeUpdate> batch;
  std::vector<VertexId> seeds;
  for (VertexId s = 1; s <= 200; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1, 1.0, 0}});
    seeds.push_back(s);
  }
  cluster.ApplyBatch(batch);
  const std::uint64_t rpcs_before =
      MetricValue(cluster.metrics(), "pd2gl_cluster_rpcs");

  RemoteSubgraphSampler sampler(&cluster);
  sampler.Sample(seeds, {{.fanout = 5}, {.fanout = 5}}, 9);

  // 2 hops x at most 4 shards = at most 8 RPCs, regardless of the 200
  // seeds and the 1000-vertex hop-1 frontier.
  EXPECT_LE(MetricValue(cluster.metrics(), "pd2gl_cluster_rpcs") - rpcs_before,
            8u);
}

TEST(RemoteSamplerTest, DanglingFrontier) {
  GraphCluster cluster(ClusterConfig{.num_shards = 2});
  cluster.Apply({UpdateKind::kInsert, Edge{1, 2, 1.0, 0}});  // 2 is a sink
  RemoteSubgraphSampler sampler(&cluster);
  const SampledSubgraph sg =
      sampler.Sample({1}, {{.fanout = 2}, {.fanout = 2}}, 3);
  EXPECT_EQ(sg.layers[1].size(), 2u);
  EXPECT_TRUE(sg.layers[2].empty());
}

}  // namespace
}  // namespace platod2gl
