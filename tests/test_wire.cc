// Wire-format codec tests: round-trips, format pinning and corruption
// rejection, plus the cluster's byte accounting matching the codec.
#include "dist/wire.h"

#include <gtest/gtest.h>

#include <vector>

#include "dist/cluster.h"
#include "metric_read.h"

namespace platod2gl {
namespace {

TEST(WireTest, SampleRequestRoundTrip) {
  wire::SampleRequest req;
  req.edge_type = 3;
  req.fanout = 25;
  req.weighted = false;
  req.seeds = {1, 0xFFFFFFFFFFFFFFFEULL, 42};

  const std::string bytes = wire::EncodeSampleRequest(req);
  // Pinned layout: 1 tag + 4 type + 4 fanout + 1 weighted + 4 count +
  // 3 * 8 seeds.
  EXPECT_EQ(bytes.size(), 14u + 3 * 8u);
  EXPECT_EQ(bytes[0], 'S');

  wire::SampleRequest decoded;
  ASSERT_EQ(wire::DecodeSampleRequest(bytes, &decoded),
            wire::DecodeResult::kOk);
  EXPECT_EQ(decoded, req);
}

TEST(WireTest, SampleResponseRoundTrip) {
  NeighborBatch batch;
  batch.neighbors = {10, 20, 30, 40};
  batch.offsets = {0, 2, 2, 4};  // middle seed empty

  const std::string bytes = wire::EncodeSampleResponse(batch);
  EXPECT_EQ(bytes[0], 'R');
  NeighborBatch decoded;
  ASSERT_EQ(wire::DecodeSampleResponse(bytes, &decoded),
            wire::DecodeResult::kOk);
  EXPECT_EQ(decoded.neighbors, batch.neighbors);
  EXPECT_EQ(decoded.offsets, batch.offsets);
}

TEST(WireTest, UpdateBatchRoundTrip) {
  std::vector<EdgeUpdate> batch = {
      {UpdateKind::kInsert, Edge{1, 2, 0.5, 0}},
      {UpdateKind::kInPlaceUpdate, Edge{3, 4, 2.5, 1}},
      {UpdateKind::kDelete, Edge{5, 6, 0.0, 2}},
  };
  const std::string bytes = wire::EncodeUpdateBatch(batch);
  EXPECT_EQ(bytes.size(), 5u + 3 * 29u) << "pinned 29-byte update records";

  std::vector<EdgeUpdate> decoded;
  ASSERT_EQ(wire::DecodeUpdateBatch(bytes, &decoded), wire::DecodeResult::kOk);
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[i].kind, batch[i].kind) << i;
    EXPECT_EQ(decoded[i].edge, batch[i].edge) << i;
  }
}

TEST(WireTest, EmptyMessages) {
  wire::SampleRequest req;
  wire::SampleRequest decoded;
  ASSERT_EQ(wire::DecodeSampleRequest(wire::EncodeSampleRequest(req), &decoded),
            wire::DecodeResult::kOk);
  EXPECT_TRUE(decoded.seeds.empty());

  std::vector<EdgeUpdate> batch, out;
  ASSERT_EQ(wire::DecodeUpdateBatch(wire::EncodeUpdateBatch(batch), &out),
            wire::DecodeResult::kOk);
  EXPECT_TRUE(out.empty());
}

TEST(WireTest, CorruptionRejected) {
  wire::SampleRequest req;
  req.seeds = {1, 2, 3};
  std::string bytes = wire::EncodeSampleRequest(req);

  constexpr wire::DecodeResult kMalformed = wire::DecodeResult::kMalformed;
  wire::SampleRequest sink;
  // Wrong tag.
  std::string wrong = bytes;
  wrong[0] = 'U';
  EXPECT_EQ(wire::DecodeSampleRequest(wrong, &sink), kMalformed);
  // Truncated.
  EXPECT_EQ(
      wire::DecodeSampleRequest(bytes.substr(0, bytes.size() - 3), &sink),
      kMalformed);
  // Trailing garbage.
  EXPECT_EQ(wire::DecodeSampleRequest(bytes + "x", &sink), kMalformed);
  // Empty.
  EXPECT_EQ(wire::DecodeSampleRequest("", &sink), kMalformed);

  std::vector<EdgeUpdate> batch_sink;
  std::string upd = wire::EncodeUpdateBatch(
      {{UpdateKind::kInsert, Edge{1, 2, 1.0, 0}}});
  upd[5] = 9;  // invalid UpdateKind
  EXPECT_EQ(wire::DecodeUpdateBatch(upd, &batch_sink), kMalformed);
}

TEST(WireTest, ClusterByteAccountingMatchesCodec) {
  GraphCluster cluster(ClusterConfig{.num_shards = 2});
  std::vector<EdgeUpdate> batch;
  for (VertexId s = 1; s <= 100; ++s) {
    batch.push_back({UpdateKind::kInsert, Edge{s, s + 1000, 1.0, 0}});
  }
  cluster.ApplyBatch(batch);

  // Reconstruct what the codec would have shipped per shard.
  std::uint64_t expect_sent = 0;
  std::vector<std::vector<EdgeUpdate>> groups(2);
  for (const EdgeUpdate& u : batch) {
    groups[cluster.partitioner().ShardOf(u.edge.src)].push_back(u);
  }
  for (const auto& g : groups) {
    if (!g.empty()) expect_sent += wire::EncodeUpdateBatch(g).size();
  }
  EXPECT_EQ(MetricValue(cluster.metrics(), "pd2gl_cluster_bytes_sent"),
            expect_sent);

  // Sampling responses ship the neighbour payload back.
  const std::uint64_t before =
      MetricValue(cluster.metrics(), "pd2gl_cluster_bytes_received");
  cluster.SampleNeighbors({1, 2, 3}, 4, true, 9);
  EXPECT_GT(MetricValue(cluster.metrics(), "pd2gl_cluster_bytes_received"),
            before + 3 * 4u);

  // A two-item round ships one SampleRequest and one SampleResponse per
  // (item, shard) group: the byte counters equal the codec's sizes summed
  // over the groups, headers included.
  const std::vector<VertexId> a = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<VertexId> b = {50, 3, 77};
  const std::vector<SampleWorkItem> work = {
      SampleWorkItem{&a, 2, true, 11, 0}, SampleWorkItem{&b, 3, false, 12, 0}};
  const obs::RegistrySnapshot start = cluster.metrics().Snapshot();
  const MultiSampleReport multi = cluster.SampleMany(work);
  std::uint64_t want_sent = 0;
  std::uint64_t want_received = 0;
  for (std::size_t w = 0; w < work.size(); ++w) {
    const std::vector<VertexId>& seeds = *work[w].seeds;
    const NeighborBatch& got = multi.reports[w].batch;
    for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
      wire::SampleRequest req;
      req.fanout = static_cast<std::uint32_t>(work[w].fanout);
      req.weighted = work[w].weighted;
      NeighborBatch resp;
      resp.offsets.push_back(0);
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        if (cluster.partitioner().ShardOf(seeds[i]) != s) continue;
        req.seeds.push_back(seeds[i]);
        resp.neighbors.insert(resp.neighbors.end(),
                              got.neighbors.begin() + got.offsets[i],
                              got.neighbors.begin() + got.offsets[i + 1]);
        resp.offsets.push_back(resp.neighbors.size());
      }
      if (req.seeds.empty()) continue;
      want_sent += wire::EncodeSampleRequest(req).size();
      want_received += wire::EncodeSampleResponse(resp).size();
    }
  }
  const obs::RegistrySnapshot end = cluster.metrics().Snapshot();
  EXPECT_EQ(MetricValue(end, "pd2gl_cluster_bytes_sent") -
                MetricValue(start, "pd2gl_cluster_bytes_sent"),
            want_sent);
  EXPECT_EQ(MetricValue(end, "pd2gl_cluster_bytes_received") -
                MetricValue(start, "pd2gl_cluster_bytes_received"),
            want_received);
}

TEST(WireTest, SizeFunctionsMatchEncoders) {
  for (const std::size_t n : {0u, 1u, 3u, 17u}) {
    wire::SampleRequest req;
    std::vector<EdgeUpdate> updates;
    NeighborBatch resp;
    resp.offsets.push_back(0);
    for (std::size_t i = 0; i < n; ++i) {
      req.seeds.push_back(i * 7);
      updates.push_back({UpdateKind::kInsert, Edge{i, i + 1, 1.0, 0}});
      for (std::size_t j = 0; j < i % 4; ++j) resp.neighbors.push_back(j);
      resp.offsets.push_back(resp.neighbors.size());
    }
    EXPECT_EQ(wire::SampleRequestBytes(n),
              wire::EncodeSampleRequest(req).size());
    EXPECT_EQ(wire::SampleResponseBytes(n, resp.neighbors.size()),
              wire::EncodeSampleResponse(resp).size());
    EXPECT_EQ(wire::UpdateBatchBytes(n), wire::EncodeUpdateBatch(updates).size());
  }
}

}  // namespace
}  // namespace platod2gl
