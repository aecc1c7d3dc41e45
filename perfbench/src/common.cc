#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/random.h"
#include "gen/datasets.h"
#include "gen/generators.h"

namespace perfbench {

using platod2gl::ClusterConfig;
using platod2gl::GraphCluster;
using platod2gl::GraphStore;
using platod2gl::MemoryBreakdown;
using platod2gl::SplitMix64;
using platod2gl::Xoshiro256;

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Either value may be +infinity (PercentileWithFailures).
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

int PinThisThread(std::size_t index) {
  // The CPUs the process could use before the first pin narrowed them.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
      }
    }
    return out;
  }();
  if (index >= cpus.size()) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index], &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpus[index] : -1;
}

double Sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double PercentileWithFailures(const std::vector<double>& ok_ms,
                              std::size_t failures, double pct,
                              double cap_ms) {
  std::vector<double> all = ok_ms;
  all.resize(ok_ms.size() + failures, INFINITY);
  return std::min(Percentile(std::move(all), pct), cap_ms);
}

// --- Inputs ---------------------------------------------------------------

namespace {

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  return SplitMix64(seed ^ (salt * 0x9E3779B97F4A7C15ULL)).Next();
}

/// Label first, then the row, from one per-vertex stream; the label's
/// coordinate carries a +1.5 signal so training has something to learn.
std::int64_t FillVertex(VertexId v, std::uint64_t seed,
                        std::vector<float>* row) {
  Xoshiro256 rng(Mix(seed, v + 1));
  const auto label = static_cast<std::int64_t>(rng.NextUint64(kNumClasses));
  row->resize(kFeatureDim);
  for (float& x : *row) x = static_cast<float>(rng.NextDouble() - 0.5);
  (*row)[static_cast<std::size_t>(label)] += 1.5f;
  return label;
}

}  // namespace

std::vector<float> FeaturesOf(VertexId v, std::uint64_t seed) {
  std::vector<float> row;
  FillVertex(v, seed, &row);
  return row;
}

GraphInput MakeGraphInput(std::uint64_t seed) {
  // Same parameters as MakeOgbnMini() in gen/datasets.cc, except the seed.
  platod2gl::RmatParams p;
  p.scale = 17;
  p.num_edges = std::max<std::size_t>(
      1, static_cast<std::size_t>(1250000.0 * platod2gl::DatasetScale()));
  p.seed = Mix(seed, 0x6F67626E);
  GraphInput g;
  g.id_space = std::size_t{1} << p.scale;
  g.edges = platod2gl::GenerateRmat(p);
  platod2gl::MakeBidirected(&g.edges);
  platod2gl::DedupEdges(&g.edges);

  std::vector<std::uint32_t> degree(g.id_space, 0);
  for (const Edge& e : g.edges) ++degree[e.src];
  for (VertexId v = 0; v < g.id_space; ++v) {
    if (degree[v] > 0) g.by_degree.push_back(v);
  }
  std::stable_sort(g.by_degree.begin(), g.by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return degree[a] > degree[b];
                   });
  std::vector<std::int32_t> rank(g.id_space, -1);
  for (std::size_t r = 0; r < g.by_degree.size(); ++r) {
    rank[g.by_degree[r]] = static_cast<std::int32_t>(r);
  }
  g.adjacency.resize(g.by_degree.size());
  for (std::size_t r = 0; r < g.by_degree.size(); ++r) {
    g.adjacency[r].reserve(degree[g.by_degree[r]]);
  }
  for (const Edge& e : g.edges) {
    g.adjacency[rank[e.src]].push_back(static_cast<std::uint32_t>(e.dst));
  }
  g.features.resize(g.by_degree.size());
  g.labels.resize(g.by_degree.size());
  for (std::size_t r = 0; r < g.by_degree.size(); ++r) {
    g.labels[r] = FillVertex(g.by_degree[r], seed, &g.features[r]);
  }
  return g;
}

std::vector<TimedUpdate> MakeUpdateStream(const GraphInput& graph,
                                          std::size_t n, StreamMix mix,
                                          std::uint64_t seed) {
  EdgeKeySet live(graph.edges.size() + n);
  for (const Edge& e : graph.edges) live.insert(EdgeKey(e.src, e.dst));
  std::vector<std::vector<std::uint32_t>> adj = graph.adjacency;
  const platod2gl::ZipfSampler zipf(graph.by_degree.size(), mix.zipf_s);
  Xoshiro256 rng(Mix(seed, 0x53545245));

  std::vector<TimedUpdate> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = zipf.Sample(rng);
    const VertexId src = graph.by_degree[r];
    const double roll = rng.NextDouble();
    EdgeUpdate u;
    u.edge.src = src;
    u.edge.weight = 0.1 + rng.NextDouble();

    bool inserted = false;
    if (roll < mix.insert || adj[r].empty()) {
      for (int tries = 0; tries < 16 && !inserted; ++tries) {
        const VertexId dst = rng.NextUint64(graph.id_space);
        if (dst != src && live.insert(EdgeKey(src, dst)).second) {
          adj[r].push_back(static_cast<std::uint32_t>(dst));
          u.kind = UpdateKind::kInsert;
          u.edge.dst = dst;
          inserted = true;
        }
      }
    }
    if (!inserted) {
      // An existing edge of src: an in-place update, a delete, or the
      // fallback of an insert into an (almost) complete row.
      const std::size_t idx = rng.NextUint64(adj[r].size());
      u.edge.dst = adj[r][idx];
      if (roll < mix.insert + mix.update) {
        u.kind = UpdateKind::kInPlaceUpdate;
      } else {
        u.kind = UpdateKind::kDelete;
        live.erase(EdgeKey(src, u.edge.dst));
        adj[r][idx] = adj[r].back();
        adj[r].pop_back();
      }
    }
    out.push_back(TimedUpdate{i + 1, u});
  }
  return out;
}

// --- Setup -------------------------------------------------------------------

std::unique_ptr<GraphStore> LoadStore(const GraphInput& graph) {
  auto store = std::make_unique<GraphStore>();
  for (const Edge& e : graph.edges) store->AddEdge(e);
  for (std::size_t r = 0; r < graph.by_degree.size(); ++r) {
    store->attributes().SetFeatures(graph.by_degree[r], graph.features[r]);
    store->attributes().SetLabel(graph.by_degree[r], graph.labels[r]);
  }
  return store;
}

std::unique_ptr<GraphCluster> LoadCluster(const GraphInput& graph,
                                          const ClusterConfig& config) {
  auto cluster = std::make_unique<GraphCluster>(config);
  constexpr std::size_t kBatch = 8192;
  std::vector<EdgeUpdate> batch;
  batch.reserve(kBatch);
  auto ship = [&] {
    const platod2gl::Status st = cluster->ApplyBatch(batch);
    if (!st.ok()) throw std::runtime_error("cluster load: " + st.ToString());
    batch.clear();
  };
  for (const Edge& e : graph.edges) {
    batch.push_back(EdgeUpdate{UpdateKind::kInsert, e});
    if (batch.size() == kBatch) ship();
  }
  if (!batch.empty()) ship();
  for (std::size_t r = 0; r < graph.by_degree.size(); ++r) {
    const VertexId v = graph.by_degree[r];
    auto& attrs =
        cluster->shard(cluster->partitioner().ShardOf(v)).store().attributes();
    attrs.SetFeatures(v, graph.features[r]);
    attrs.SetLabel(v, graph.labels[r]);
  }
  return cluster;
}

MemoryBreakdown ClusterMemory(const GraphCluster& c) {
  MemoryBreakdown total;
  for (std::size_t s = 0; s < c.num_shards(); ++s) {
    const MemoryBreakdown m = c.shard(s).store().TopologyMemory();
    total.topology_bytes += m.topology_bytes;
    total.index_bytes += m.index_bytes;
    total.key_bytes += m.key_bytes;
    total.other_bytes += m.other_bytes;
  }
  return total;
}

// --- Tracing -----------------------------------------------------------------

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> SelfSecondsByLayer(
    const std::vector<SpanLog>& logs) {
  std::map<std::string, double> by_layer;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      by_layer[layer] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                              child_ns[i]) /
          1e9;
    }
  }
  return {by_layer.begin(), by_layer.end()};
}

// --- Results -----------------------------------------------------------------

void Result::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.emplace_back(name, ok);
  if (!ok) check_details.push_back(name + ": " + detail);
}

bool Result::correct() const {
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return !checks.empty();
}

}  // namespace perfbench
