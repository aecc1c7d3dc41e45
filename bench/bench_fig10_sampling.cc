// Figure 10 reproduction: sampling time by batch size.
//
//   (a-c) neighbour sampling, 50 neighbours per seed, batch 2^10 .. 2^14
//   (d-f) 2-hop subgraph sampling (fan-out 25 x 10), batch 2^8 .. 2^12
//
// Paper result: PlatoD2GL beats PlatoGL by up to 2.9x on neighbour
// sampling and up to 10.1x on subgraph sampling (WeChat); the compressed
// system also beats its own w/o-CP ablation thanks to cache effects.
// AliGraph is competitive per-sample (alias tables are O(1)) but pays the
// rebuild-on-mutation and memory costs shown in Fig. 8 / Table IV.
//
// Beyond the paper figure, a Zipf-skewed serving workload measures the
// hot-vertex sampling cache (sampling/sample_cache.h) on/off: power-law
// seed traffic against one GraphStore, cache-off going straight down the
// samtree descent and cache-on hitting the O(1) alias tables. All numbers
// are also written to BENCH_fig10_sampling.json so the perf trajectory is
// tracked across PRs.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "storage/graph_store.h"

using namespace platod2gl;
using namespace platod2gl::bench;

namespace {

// Generic 2-hop expansion over the NeighborStore interface so every
// system runs the identical subgraph workload.
double TwoHopMillis(NeighborStore& store, const std::vector<VertexId>& seeds,
                    std::size_t fanout1, std::size_t fanout2,
                    Xoshiro256& rng) {
  Timer t;
  std::vector<VertexId> hop1, hop2;
  for (VertexId s : seeds) {
    hop1.clear();
    if (!store.SampleNeighbors(s, fanout1, rng, &hop1)) continue;
    for (VertexId u : hop1) {
      hop2.clear();
      store.SampleNeighbors(u, fanout2, rng, &hop2);
    }
  }
  return t.ElapsedMillis();
}

/// Sample-cache tallies over a measured window: the difference of two
/// snapshots of the registry the cache is registered with.
struct CacheWindow {
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;  ///< hits + stale hits + misses

  double HitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

CacheWindow CacheDelta(const obs::RegistrySnapshot& from,
                       const obs::RegistrySnapshot& to) {
  const auto delta = [&](const char* name) {
    return to.Value(name) - from.Value(name);
  };
  CacheWindow w;
  w.hits = delta("pd2gl_sample_cache_hits");
  w.lookups = w.hits + delta("pd2gl_sample_cache_stale_hits") +
              delta("pd2gl_sample_cache_misses");
  return w;
}

/// The Zipf-skewed hot-vertex workload: one GraphStore, seed traffic
/// drawn Zipf(1.0) over the degree-ranked sources, measured with the
/// sampling cache bypassed (pure samtree descent) and consulted.
void RunZipfCacheMode(const Dataset& ds, JsonRecords* json) {
  GraphStoreConfig cfg;
  cfg.num_relations = ds.num_relations;
  // Serving caches earn their keep fast on skewed traffic: admit hot
  // vertices on the second touch once they carry a real neighbourhood.
  cfg.sample_cache.min_degree = 32;
  cfg.sample_cache.admit_after_misses = 2;
  GraphStore graph(cfg);
  for (const Edge& e : ds.edges) {
    graph.topology(e.type).AddEdgeUnchecked(e.src, e.dst, e.weight);
  }
  obs::MetricRegistry registry;  // pd2gl_sample_cache_* of this store
  graph.sample_cache()->RegisterWith(&registry, {});

  // Degree-ranked sources: Zipf rank 0 = highest degree, the realistic
  // "popular vertices are big" serving shape.
  std::vector<VertexId> sources = SourcesOf(ds.edges, 0);
  std::sort(sources.begin(), sources.end(), [&](VertexId a, VertexId b) {
    return graph.Degree(a, 0) > graph.Degree(b, 0);
  });

  const std::size_t batch = 1u << 14;
  const std::size_t fanout = 50;
  const int rounds = 4;
  Xoshiro256 seed_rng(99);
  const std::vector<VertexId> seeds =
      ZipfSeedBatch(sources, batch, /*exponent=*/1.0, seed_rng);

  std::printf("\n--- %s: Zipf(1.0) hot-vertex serving, %zu seeds x %d "
              "rounds, fanout %zu ---\n",
              ds.name.c_str(), batch, rounds, fanout);
  std::printf("%-10s %14s %14s %10s %10s\n", "mode", "cache off",
              "cache on", "speedup", "hit rate");
  PrintRule();

  for (bool weighted : {true, false}) {
    std::vector<VertexId> out;

    // Cache off: straight down the ITS+FTS descent via the topology layer
    // (identical to GraphStore sampling with the cache disabled).
    Xoshiro256 rng_off(7);
    Timer t_off;
    for (int r = 0; r < rounds; ++r) {
      for (VertexId s : seeds) {
        out.clear();
        graph.topology(0).SampleNeighbors(s, fanout, weighted, rng_off, &out);
      }
    }
    const double off_ms = t_off.ElapsedMillis();

    // Cache on: one warm-up pass (admission wants admit_after_misses
    // touches), then the measured rounds.
    graph.sample_cache()->Clear();
    Xoshiro256 rng_on(7);
    for (int w = 0; w < 2; ++w) {
      for (VertexId s : seeds) {
        out.clear();
        graph.SampleNeighbors(s, fanout, weighted, rng_on, &out, 0);
      }
    }
    const obs::RegistrySnapshot on_start = registry.Snapshot();
    Timer t_on;
    for (int r = 0; r < rounds; ++r) {
      for (VertexId s : seeds) {
        out.clear();
        graph.SampleNeighbors(s, fanout, weighted, rng_on, &out, 0);
      }
    }
    const double on_ms = t_on.ElapsedMillis();

    const CacheWindow stats = CacheDelta(on_start, registry.Snapshot());
    const double total_draws =
        static_cast<double>(batch) * rounds * static_cast<double>(fanout);
    const char* mode = weighted ? "weighted" : "uniform";
    std::printf("%-10s %12.2fms %12.2fms %9.2fx %9.1f%%\n", mode, off_ms,
                on_ms, off_ms / on_ms, 100.0 * stats.HitRate());

    json->Rec()
        .Str("dataset", ds.name)
        .Str("section", "zipf_cache")
        .Str("mode", mode)
        .Num("zipf_exponent", 1.0)
        .Num("batch", static_cast<std::uint64_t>(batch))
        .Num("fanout", static_cast<std::uint64_t>(fanout))
        .Num("rounds", static_cast<std::uint64_t>(rounds))
        .Num("cache_off_ms", off_ms)
        .Num("cache_on_ms", on_ms)
        .Num("speedup", off_ms / on_ms)
        .Num("cache_off_ksamples_per_sec", total_draws / off_ms)
        .Num("cache_on_ksamples_per_sec", total_draws / on_ms)
        .Num("hit_rate", stats.HitRate())
        .Num("cache_entries",
             static_cast<std::uint64_t>(graph.sample_cache()->size()))
        .Num("cache_bytes", static_cast<std::uint64_t>(
                                graph.sample_cache()->MemoryUsage()));
  }

  // Hit-path microbench + assert: pin the hottest vertex, warm its cache
  // entry, then time pure-hit batch requests. Every request must be served
  // by ONE cache lookup + ONE AliasTable::SampleBatch call; the assert
  // guards against per-draw overhead (k lookups, k table walks) creeping
  // back into SampleCache::Entry::Draw, by requiring (a) every timed
  // request to be a hit and (b) the cached batch to beat the uncached
  // descent on the same vertex.
  {
    const VertexId hot = sources.front();
    const std::size_t requests = 20000;
    std::vector<VertexId> out;
    Xoshiro256 rng(21);
    for (int w = 0; w < 3; ++w) {  // admission wants two misses
      out.clear();
      graph.SampleNeighbors(hot, fanout, /*weighted=*/true, rng, &out, 0);
    }
    const obs::RegistrySnapshot hit_start = registry.Snapshot();
    Timer t_hit;
    for (std::size_t i = 0; i < requests; ++i) {
      out.clear();
      graph.SampleNeighbors(hot, fanout, /*weighted=*/true, rng, &out, 0);
    }
    const double hit_ms = t_hit.ElapsedMillis();

    Xoshiro256 rng_ref(21);
    Timer t_ref;
    for (std::size_t i = 0; i < requests; ++i) {
      out.clear();
      graph.topology(0).SampleNeighbors(hot, fanout, /*weighted=*/true,
                                        rng_ref, &out);
    }
    const double ref_ms = t_ref.ElapsedMillis();

    const CacheWindow hs = CacheDelta(hit_start, registry.Snapshot());
    const double draws = static_cast<double>(requests) *
                         static_cast<double>(fanout);
    std::printf("hit-path microbench: %.1f ns/draw cached vs %.1f ns/draw "
                "descent (%.2fx), %llu/%zu hits\n", hit_ms * 1e6 / draws,
                ref_ms * 1e6 / draws, ref_ms / hit_ms,
                static_cast<unsigned long long>(hs.hits), requests);
    if (hs.hits != requests || hit_ms >= ref_ms) {
      std::fprintf(stderr,
                   "hit-path microbench ASSERT FAILED: hits=%llu/%zu, "
                   "cached %.2fms vs descent %.2fms\n",
                   static_cast<unsigned long long>(hs.hits), requests,
                   hit_ms, ref_ms);
      std::abort();
    }
    json->Rec()
        .Str("dataset", ds.name)
        .Str("section", "cache_hit_microbench")
        .Num("requests", static_cast<std::uint64_t>(requests))
        .Num("fanout", static_cast<std::uint64_t>(fanout))
        .Num("hit_ns_per_draw", hit_ms * 1e6 / draws)
        .Num("descent_ns_per_draw", ref_ms * 1e6 / draws)
        .Num("speedup", ref_ms / hit_ms);
  }
}

}  // namespace

int main() {
  std::printf("=== Figure 10: sampling time by batch size ===\n");
  std::printf("(scale factor %.2f)\n", DatasetScale());
  JsonRecords json("fig10_sampling");

  for (const Dataset& ds : MakeAllDatasets()) {
    auto systems = MakeAllSystems(ds.num_relations);
    for (auto& sys : systems) BuildSystem(sys, ds.edges);
    // Sampling runs on relation 0 (the sole relation of the RMAT sets,
    // User-Live for wechat-mini).
    const std::vector<VertexId> sources = SourcesOf(ds.edges, 0);

    std::printf("\n--- %s: neighbour sampling, 50 per seed (Fig. 10a-c) "
                "---\n",
                ds.name.c_str());
    std::printf("%-10s %12s %12s %12s %14s\n", "batch", "AliGraph",
                "PlatoGL", "PlatoD2GL", "w/o CP");
    PrintRule();
    for (int logn = 10; logn <= 14; ++logn) {
      const auto seeds = SeedBatch(sources, 1u << logn);
      std::printf("2^%-8d", logn);
      std::vector<double> ms;
      for (auto& sys : systems) {
        Xoshiro256 rng(7);
        Timer t;
        std::vector<VertexId> out;
        for (VertexId s : seeds) {
          out.clear();
          sys.rel(0).SampleNeighbors(s, 50, rng, &out);
        }
        ms.push_back(t.ElapsedMillis());
        json.Rec()
            .Str("dataset", ds.name)
            .Str("section", "neighbor_sampling")
            .Str("system", sys.name)
            .Num("log2_batch", static_cast<std::uint64_t>(logn))
            .Num("ms", ms.back());
      }
      std::printf(" %9.2fms %9.2fms %9.2fms %11.2fms   (D2GL %4.1fx vs "
                  "PlatoGL)\n",
                  ms[0], ms[1], ms[2], ms[3], ms[1] / ms[2]);
    }

    std::printf("\n--- %s: 2-hop subgraph sampling, 25 x 10 (Fig. 10d-f) "
                "---\n",
                ds.name.c_str());
    std::printf("%-10s %12s %12s %12s %14s\n", "batch", "AliGraph",
                "PlatoGL", "PlatoD2GL", "w/o CP");
    PrintRule();
    for (int logn = 8; logn <= 12; ++logn) {
      const auto seeds = SeedBatch(sources, 1u << logn);
      std::printf("2^%-8d", logn);
      std::vector<double> ms;
      for (auto& sys : systems) {
        Xoshiro256 rng(13);
        ms.push_back(TwoHopMillis(sys.rel(0), seeds, 25, 10, rng));
        json.Rec()
            .Str("dataset", ds.name)
            .Str("section", "twohop_sampling")
            .Str("system", sys.name)
            .Num("log2_batch", static_cast<std::uint64_t>(logn))
            .Num("ms", ms.back());
      }
      std::printf(" %9.2fms %9.2fms %9.2fms %11.2fms   (D2GL %4.1fx vs "
                  "PlatoGL)\n",
                  ms[0], ms[1], ms[2], ms[3], ms[1] / ms[2]);
    }

    RunZipfCacheMode(ds, &json);
  }
  std::printf("\npaper shape: PlatoD2GL faster than PlatoGL everywhere "
              "(up to 2.9x neighbour, up to 10.1x subgraph) and faster "
              "than its w/o-CP ablation; cache-on Zipf serving >= 2x "
              "cache-off\n");
  if (json.WriteFile("BENCH_fig10_sampling.json")) {
    std::printf("wrote BENCH_fig10_sampling.json\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_fig10_sampling.json\n");
  }
  return 0;
}
