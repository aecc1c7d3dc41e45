// serve-zipf: online sampling queries through GraphServer over a 4-shard
// GraphCluster. Seeds are Zipf(0.99) over vertices sorted by degree, so the
// hot set is cached (the sample cache admits degree >= 128 only, and the
// Zipf head is exactly the high-degree vertices). A paced churn thread
// writes beside the reads: it invalidates cache entries and contends for
// shard locks. The ingest pipeline and the model do no work here.
//
// Phases: a closed-loop warm-up, then kRounds rounds of an open-loop
// segment at a fixed rate (latency is timed from each request's scheduled
// send time, so a driver stall counts against every request it delays)
// followed by a closed-loop segment with kOutstanding requests in flight
// (capacity). The cluster's virtual network costs nothing
// (rpc_latency_us = 0) and the server's clock is real elapsed time, so
// every latency is real work and real queueing.
#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "common/random.h"
#include "gen/generators.h"
#include "pipeline/epoch_coordinator.h"
#include "serve/query_plan.h"
#include "serve/server.h"

namespace perfbench {

using namespace platod2gl;
using serve::GraphServer;
using serve::QueryRequest;
using serve::QueryResponse;
using serve::RequestStatus;

namespace {

constexpr std::size_t kShards = 4;
/// One client thread: with two, closed-loop capacity ranged 11.3-18.9k
/// rps over repeated runs against 16.2-16.6k with one (see README).
constexpr std::size_t kClientThreads = 1;
constexpr std::uint32_t kTenants = 4;
constexpr std::size_t kOutstanding = 64;
/// The fixed open-loop rate, well under closed-loop capacity (13k-29k rps
/// with 64 requests to batch, depending on how loaded the host is). The
/// host's speed moves by up to 1.8x between minutes, and an open loop near
/// capacity turns a slow minute into a queue: at 2000 rps without the CPU
/// pinning below, one slow stretch moved a run's p50/p90 from 0.32/0.49 ms
/// to 1.05/7.2 ms. At 1000 rps the open loop stays far from saturation in a
/// slow minute too, so its latency is the batching delay plus the work.
constexpr double kOpenRatePerSec = 1000.0;
/// Churn: one ApplyBatch of 32 updates every 10 ms (3.2k updates/s). The
/// rate is a choice, not derived from anything (see README). Churning at
/// train-stream's 20k updates/s made the results depend on the seed: seed 2
/// served 10.2-10.8k rps with a 1.9-2.8 ms p90 against 12.2-15.2k rps and
/// 0.58-0.80 ms on seeds 1 and 3-5.
constexpr double kChurnPeriodMs = 10.0;
constexpr std::size_t kChurnBatch = 32;
/// Churn inserts and deletes only edges into this id range, which no
/// request can reach except through such an edge, so every returned
/// neighbour stays checkable against base + churn-inserted edges.
constexpr VertexId kChurnBase = VertexId{1} << 20;
constexpr std::size_t kChurnTargets = 4096;
/// The run is kRounds rounds of (open-loop, closed-loop) segments, so a
/// slow stretch of the machine lands on both kinds of segment alike.
constexpr int kRounds = 16;
/// Closed-loop throughput is counted per window of this length.
constexpr double kWindowS = 0.125;
/// Every kCheckEvery-th request keeps a copy for the response check.
constexpr std::uint64_t kCheckEvery = 16;

class RequestGen {
 public:
  RequestGen(const GraphInput& graph, std::uint64_t seed)
      : graph_(graph),
        seed_zipf_(graph.by_degree.size(), 0.99),
        tenant_zipf_(kTenants, 0.6),
        rng_(seed ^ 0x5E11E5ULL),
        seed_(seed) {}

  QueryRequest Next(std::uint64_t id) {
    QueryRequest req;
    req.tenant = static_cast<std::uint32_t>(tenant_zipf_.Sample(rng_));
    req.request_id = id;
    req.rng_seed = SplitMix64(seed_ ^ (id * 0x9E3779B97F4A7C15ULL)).Next();
    const std::size_t num_seeds = 2 + rng_.NextUint64(6);
    for (std::size_t s = 0; s < num_seeds; ++s) {
      req.seeds.push_back(graph_.by_degree[seed_zipf_.Sample(rng_)]);
    }
    const std::uint64_t mix = rng_.NextUint64(10);
    if (mix < 7) {  // 2-hop neighbourhood
      req.plan.Sample(10).Sample(5, true, 0);
    } else if (mix < 9) {  // 1-hop + feature gather
      req.plan.Sample(10).Gather(0);
    } else {  // link-prediction negatives
      req.plan.Sample(10).NegativeSample(32, 0, graph_.id_space);
    }
    return req;
  }

 private:
  const GraphInput& graph_;
  ZipfSampler seed_zipf_;
  ZipfSampler tenant_zipf_;
  Xoshiro256 rng_;
  std::uint64_t seed_;
};

/// Pre-generated churn batches: inserts and deletes of edges into the churn
/// id range, plus in-place weight updates of base edges. Sources are
/// uniform over the vertices, not Zipf-hot like the reads: with Zipf(0.99)
/// write sources every churn batch made the hottest cache entries stale,
/// and closed-loop capacity on one seed ranged 7.5k-15.3k rps between
/// runs. Every edge churn may insert is added to `allowed`.
std::vector<std::vector<EdgeUpdate>> MakeChurn(const GraphInput& graph,
                                               std::size_t batches,
                                               std::uint64_t seed,
                                               EdgeKeySet* allowed) {
  Xoshiro256 rng(seed ^ 0xC4A2ULL);
  std::vector<std::pair<VertexId, VertexId>> live;
  std::vector<std::vector<EdgeUpdate>> out(batches);
  for (auto& batch : out) {
    for (std::size_t k = 0; k < kChurnBatch; ++k) {
      const std::size_t r = rng.NextUint64(graph.by_degree.size());
      const VertexId src = graph.by_degree[r];
      const std::uint64_t roll = rng.NextUint64(10);
      const Weight w = 0.1 + rng.NextDouble();
      if (roll < 4 || (roll < 7 && live.empty())) {
        const VertexId dst = kChurnBase + rng.NextUint64(kChurnTargets);
        batch.push_back({UpdateKind::kInsert, Edge{src, dst, w, 0}});
        live.emplace_back(src, dst);
        allowed->insert(EdgeKey(src, dst));
      } else if (roll < 7) {
        const std::size_t idx = rng.NextUint64(live.size());
        batch.push_back({UpdateKind::kDelete,
                         Edge{live[idx].first, live[idx].second, 1.0, 0}});
        live[idx] = live.back();
        live.pop_back();
      } else {
        const auto& row = graph.adjacency[r];
        const VertexId dst = row[rng.NextUint64(row.size())];
        batch.push_back({UpdateKind::kInPlaceUpdate, Edge{src, dst, w, 0}});
      }
    }
  }
  return out;
}

/// Outcomes of one phase, as the driver saw them.
struct PhaseTally {
  std::vector<double> ok_ms;  ///< scheduled send -> taken from the server
  std::size_t submitted = 0;
  std::size_t failed = 0;  ///< refused, shed, invalid or degraded
  std::size_t ok_in_window = 0;
  double wall_s = 0.0;
  std::vector<double> window_rps;  ///< closed loop: OK/s per kWindowS
  double pump_busy_ms = 0.0;
};

/// The single driver thread: submits, pumps and takes completions.
class Driver {
 public:
  Driver(GraphServer* server, RequestGen* gen, bool trace)
      : server_(server), gen_(gen), trace_(trace), base_ns_(NowNs()) {}

  /// Submit request `id`, due at `sched_ns`.
  void Submit(std::uint64_t id, std::int64_t sched_ns, PhaseTally* tally) {
    QueryRequest req = gen_->Next(id);
    if (id % kCheckEvery == 0) kept_.emplace(id, req);
    if (sched_.size() <= id) sched_.resize(id + 1, 0);
    sched_[id] = sched_ns;
    ++tally->submitted;
    const std::int64_t t0 = NowNs();
    const Status st = server_->Submit(std::move(req), Us(t0));
    if (trace_) log_.AddRoot("serve.submit", t0, NowNs(), id);
    if (st.ok()) {
      ++outstanding_;
    } else {
      ++tally->failed;
      kept_.erase(id);
    }
  }

  /// Pump once and take everything that completed. `window_end_ns` bounds
  /// which OK completions count towards the phase's throughput.
  void Pump(PhaseTally* tally, std::int64_t window_end_ns, bool drain) {
    const std::int64_t t0 = NowNs();
    const std::size_t dispatched =
        drain ? server_->Drain(Us(t0)) : server_->Pump(Us(t0));
    const std::int64_t t1 = NowNs();
    if (dispatched > 0) {
      tally->pump_busy_ms += static_cast<double>(t1 - t0) / 1e6;
      if (trace_) log_.AddRoot("serve.pump", t0, t1, ++pumps_);
    }
    std::vector<QueryResponse> done = server_->TakeCompleted();
    const std::int64_t now = NowNs();
    for (QueryResponse& resp : done) {
      --outstanding_;
      const double ms =
          static_cast<double>(now - sched_[resp.request_id]) / 1e6;
      if (resp.status == RequestStatus::kOk) {
        tally->ok_ms.push_back(ms);
        if (now <= window_end_ns) ++tally->ok_in_window;
      } else {
        ++tally->failed;
      }
      auto it = kept_.find(resp.request_id);
      if (it != kept_.end()) {
        if (resp.status == RequestStatus::kOk) {
          checked_.emplace_back(std::move(it->second), std::move(resp));
        }
        kept_.erase(it);
      }
    }
  }

  std::size_t outstanding() const { return outstanding_; }
  SpanLog& log() { return log_; }
  std::vector<std::pair<QueryRequest, QueryResponse>>& checked() {
    return checked_;
  }

 private:
  std::uint64_t Us(std::int64_t ns) const {
    return static_cast<std::uint64_t>(ns - base_ns_) / 1000;
  }

  GraphServer* server_;
  RequestGen* gen_;
  bool trace_;
  std::int64_t base_ns_;
  std::vector<std::int64_t> sched_;
  std::size_t outstanding_ = 0;
  std::uint64_t pumps_ = 0;
  std::unordered_map<std::uint64_t, QueryRequest> kept_;
  std::vector<std::pair<QueryRequest, QueryResponse>> checked_;
  SpanLog log_{"driver"};
};

/// Count of neighbours in an OK response that are no edge of the graph,
/// plus gather rows that differ from the stored features.
std::size_t BadOutputs(const QueryRequest& req, const QueryResponse& resp,
                       const EdgeKeySet& allowed, const GraphInput& graph,
                       std::uint64_t seed) {
  std::size_t bad = 0;
  if (resp.stages.size() != req.plan.ops.size()) return 1;
  std::vector<VertexId> input = req.seeds;
  for (std::size_t j = 0; j < req.plan.ops.size(); ++j) {
    const serve::PlanOp& op = req.plan.ops[j];
    const serve::StageOutput& st = resp.stages[j];
    switch (op.kind) {
      case serve::OpKind::kSample:
      case serve::OpKind::kTraverse:
        if (st.offsets.size() != input.size() + 1) return bad + 1;
        for (std::size_t i = 0; i < input.size(); ++i) {
          for (std::uint64_t k = st.offsets[i]; k < st.offsets[i + 1]; ++k) {
            if (!allowed.contains(EdgeKey(input[i], st.ids[k]))) ++bad;
          }
        }
        input = st.ids;
        break;
      case serve::OpKind::kNegativeSample:
        for (VertexId v : st.ids) {
          if (v < op.range_lo || v >= op.range_hi) ++bad;
        }
        input = st.ids;
        break;
      case serve::OpKind::kGather: {
        if (st.features.size() != input.size() * st.feature_dim) return bad + 1;
        for (std::size_t i = 0; i < input.size(); ++i) {
          const VertexId v = input[i];
          const std::vector<float> want = v < graph.id_space
                                              ? FeaturesOf(v, seed)
                                              : std::vector<float>();
          for (std::size_t d = 0; d < st.feature_dim; ++d) {
            const float expect = d < want.size() ? want[d] : 0.0f;
            if (st.features[i * st.feature_dim + d] != expect) {
              ++bad;
              break;
            }
          }
        }
        break;
      }
    }
  }
  return bad;
}

SampleCacheStats CacheStats(GraphCluster& cluster) {
  SampleCacheStats total;
  for (std::size_t s = 0; s < cluster.num_shards(); ++s) {
    if (SampleCache* c = cluster.shard(s).store().sample_cache()) {
      const SampleCacheStats st = c->Stats();
      total.hits += st.hits;
      total.stale_hits += st.stale_hits;
      total.misses += st.misses;
    }
  }
  return total;
}

/// Sum of a log-bucketed histogram, each sample taken at its power-of-two
/// bucket's midpoint (bucket b >= 1 holds [2^(b-1), 2^b) ns).
double EstimatedSumNs(const HistogramSnapshot& h) {
  double sum = 0.0;
  for (std::size_t b = 1; b < HistogramSnapshot::kBuckets; ++b) {
    sum += static_cast<double>(h.buckets[b]) * 1.5 * std::ldexp(1.0, b - 1);
  }
  return sum;
}

}  // namespace

Result RunServeZipf(const Options& opt) {
  Result result;
  result.threads = {{"driver", 1},
                    {"churn", 1},
                    {"cluster_client_pool", static_cast<int>(kClientThreads)}};
  const GraphInput input = MakeGraphInput(opt.seed);

  const double warm_s = 0.1 * opt.seconds;
  const double open_s = 0.6 * opt.seconds / kRounds;    // per round
  const double closed_s = 0.3 * opt.seconds / kRounds;  // per round
  const auto churn_batches = static_cast<std::size_t>(
      1.1 * opt.seconds * 1e3 / kChurnPeriodMs + 1);
  EdgeKeySet allowed(input.edges.size() + churn_batches * kChurnBatch);
  for (const Edge& e : input.edges) {
    allowed.insert(EdgeKey(e.src, e.dst));
  }
  const std::vector<std::vector<EdgeUpdate>> churn =
      MakeChurn(input, churn_batches, opt.seed, &allowed);
  // Open-loop arrival offsets of each round: exponential gaps at
  // kOpenRatePerSec.
  std::vector<std::vector<std::int64_t>> arrivals(kRounds);
  Xoshiro256 arrival_rng(opt.seed ^ 0xA11FULL);
  for (std::vector<std::int64_t>& round : arrivals) {
    double t_ns = 0.0;
    while (true) {
      t_ns += -1e9 / kOpenRatePerSec * std::log(1.0 - arrival_rng.NextDouble());
      if (t_ns >= open_s * 1e9) break;
      round.push_back(static_cast<std::int64_t>(t_ns));
    }
  }

  // The driver and the cluster's client thread take turns (every RPC round
  // is a hand-off and a wait), so they share one CPU: the hand-off is then
  // a switch on that CPU instead of a wake-up of another, idle virtual CPU,
  // whose cost swings with the host's load. The churn thread gets its own.
  const int driver_cpu = PinThisThread(0);
  ClusterConfig cfg;
  cfg.num_shards = kShards;
  cfg.rpc_latency_us = 0;
  cfg.num_client_threads = kClientThreads;
  auto clusters = TimedSetup<GraphCluster>(
      kSetupReps, 1, [&] { return LoadCluster(input, cfg); }, &result);
  GraphCluster& cluster = *clusters[0];
  EpochCoordinator epochs;
  serve::ServeConfig scfg;
  scfg.num_tenants = kTenants;
  scfg.admission.max_in_flight = 512;
  scfg.admission.tenant_quota = 256;
  scfg.admission.policy = serve::AdmissionPolicy::kShedOldest;
  GraphServer server(&cluster, &epochs, scfg);
  RequestGen gen(input, opt.seed);
  Driver driver(&server, &gen, opt.trace);

  // Churn: paced ApplyBatch calls for the whole run.
  std::atomic<bool> stop_churn{false};
  PacedStats churn_paced;
  std::size_t churn_failures = 0;
  SpanLog churn_log("churn");
  const std::int64_t churn_start = NowNs();
  int churn_cpu = -1;
  std::thread churner([&] {
    if (driver_cpu >= 0) churn_cpu = PinThisThread(1);
    churn_paced = RunPaced(churn_start, kChurnPeriodMs * 1e6, churn.size(),
                           stop_churn, [&](std::size_t i) {
                             const std::int64_t t0 = NowNs();
                             if (!cluster.ApplyBatch(churn[i]).ok()) {
                               ++churn_failures;
                             }
                             if (opt.trace) {
                               churn_log.AddRoot("dist.apply_batch", t0,
                                                 NowNs(), i);
                             }
                           });
  });

  std::uint64_t next_id = 0;
  // kOutstanding requests in flight; OK completions counted per window.
  auto closed_loop = [&](double secs, PhaseTally* tally) {
    const std::int64_t start = NowNs();
    const std::int64_t end = start + static_cast<std::int64_t>(secs * 1e9);
    const auto window_ns =
        static_cast<std::int64_t>(std::min(kWindowS, secs) * 1e9);
    std::int64_t mark = start;
    std::size_t ok_at_mark = 0;
    while (true) {
      const std::int64_t now = NowNs();
      if (now - mark >= window_ns || now >= end) {
        if (2 * (now - mark) >= window_ns) {  // drop a short last window
          tally->window_rps.push_back(
              static_cast<double>(tally->ok_in_window - ok_at_mark) /
              (static_cast<double>(now - mark) / 1e9));
        }
        mark = now;
        ok_at_mark = tally->ok_in_window;
        if (now >= end) break;
      }
      while (driver.outstanding() < kOutstanding) {
        driver.Submit(next_id++, NowNs(), tally);
      }
      driver.Pump(tally, end, false);
    }
    tally->wall_s = static_cast<double>(NowNs() - start) / 1e9;
    driver.Pump(tally, end, true);
  };
  // Requests sent when due, whatever the server's state.
  auto open_loop = [&](const std::vector<std::int64_t>& due_ns,
                       PhaseTally* tally, int round) {
    PacingReport pacing;
    pacing.generator = "requests";
    pacing.phase = "open-" + std::to_string(round + 1);
    pacing.backlog_limit = 2.0 * kOutstanding;
    pacing.lateness_limit_ms = 10.0;
    std::vector<double> lateness_ms;
    const std::int64_t start = NowNs();
    const std::int64_t end = start + static_cast<std::int64_t>(open_s * 1e9);
    std::size_t next = 0;
    while (true) {
      const std::int64_t now = NowNs();
      if (now >= end) break;
      while (next < due_ns.size() && start + due_ns[next] <= now) {
        lateness_ms.push_back(
            static_cast<double>(NowNs() - start - due_ns[next]) / 1e6);
        driver.Submit(next_id++, start + due_ns[next], tally);
        ++next;
      }
      driver.Pump(tally, end, false);
    }
    tally->wall_s = static_cast<double>(NowNs() - start) / 1e9;
    std::size_t due = next;
    while (due < due_ns.size() && start + due_ns[due] <= end) ++due;
    pacing.backlog_end =
        static_cast<double>((due - next) + driver.outstanding());
    pacing.lateness_p99_ms = Percentile(lateness_ms, 99);
    pacing.lateness_max_ms = Percentile(lateness_ms, 100);
    result.pacing.push_back(pacing);
    driver.Pump(tally, end, true);
  };

  PhaseTally warm;
  closed_loop(warm_s, &warm);

  const SampleCacheStats cache0 = CacheStats(cluster);
  const obs::RegistrySnapshot serve0 = server.metrics().Snapshot();
  const HistogramSnapshot rpc0 =
      cluster.metrics().Snapshot().Hist("pd2gl_cluster_rpc_compute_nanos");
  driver.log().Clear();
  std::vector<PhaseTally> open(kRounds), closed(kRounds);
  const std::int64_t rounds_start = NowNs();
  for (int r = 0; r < kRounds; ++r) {
    open_loop(arrivals[r], &open[r], r);
    closed_loop(closed_s, &closed[r]);
  }
  const double rounds_ms = static_cast<double>(NowNs() - rounds_start) / 1e6;

  stop_churn.store(true, std::memory_order_release);
  churner.join();
  const SampleCacheStats cache1 = CacheStats(cluster);
  const obs::RegistrySnapshot serve1 = server.metrics().Snapshot();
  const HistogramSnapshot rpc =
      cluster.metrics()
          .Snapshot()
          .Hist("pd2gl_cluster_rpc_compute_nanos")
          .DeltaSince(rpc0);

  // --- end-to-end ----------------------------------------------------------
  // p50 over every open-loop request; p90 and p99 per round, median over
  // rounds; capacity as the median closed-loop window. p90 is the bounded
  // tail: at 4000 rps the ten-seed spread (quartile distance / median) of
  // the p99 was 0.27-0.28, of the p90 0.19 on the same runs, because host
  // stalls that barely move throughput land in the top percent of
  // open-loop latencies.
  std::vector<double> open_ok_ms, round_p90, round_p99, windows;
  std::size_t open_submitted = 0, open_failed = 0, closed_submitted = 0,
              closed_failed = 0;
  double open_wall_s = 0.0, open_pump_ms = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    open_ok_ms.insert(open_ok_ms.end(), open[r].ok_ms.begin(),
                      open[r].ok_ms.end());
    round_p90.push_back(PercentileWithFailures(open[r].ok_ms, open[r].failed,
                                               90, open[r].wall_s * 1e3));
    round_p99.push_back(PercentileWithFailures(open[r].ok_ms, open[r].failed,
                                               99, open[r].wall_s * 1e3));
    windows.insert(windows.end(), closed[r].window_rps.begin(),
                   closed[r].window_rps.end());
    open_submitted += open[r].submitted;
    open_failed += open[r].failed;
    closed_submitted += closed[r].submitted;
    closed_failed += closed[r].failed;
    open_wall_s += open[r].wall_s;
    open_pump_ms += open[r].pump_busy_ms;
  }
  result.attempted = open_submitted + closed_submitted;
  result.failed = open_failed + closed_failed;
  const MemoryBreakdown mem = ClusterMemory(cluster);
  result.e2e.emplace_back("serve_ms.p50",
                          PercentileWithFailures(open_ok_ms, open_failed, 50,
                                                 open_s * 1e3));
  result.e2e.emplace_back("serve_ms.p90", Median(round_p90));
  result.e2e.emplace_back("serve_ms.p99", Median(round_p99));
  result.e2e.emplace_back("serve_capacity_rps", Median(windows));
  result.e2e.emplace_back("bytes_per_edge",
                          static_cast<double>(mem.Total()) /
                              static_cast<double>(cluster.NumEdges()));
  result.counts.insert(
      result.counts.end(),
      {{"open_rate_per_s", kOpenRatePerSec},
       {"rounds", static_cast<double>(kRounds)},
       {"open_requests", static_cast<double>(open_submitted)},
       {"open_failed", static_cast<double>(open_failed)},
       {"closed_requests", static_cast<double>(closed_submitted)},
       {"closed_failed", static_cast<double>(closed_failed)},
       {"closed_windows", static_cast<double>(windows.size())},
       {"outstanding", static_cast<double>(kOutstanding)},
       {"churn_batches", static_cast<double>(churn_paced.sent)},
       {"checked_responses", static_cast<double>(driver.checked().size())},
       {"driver_cpu", static_cast<double>(driver_cpu)},
       {"churn_cpu", static_cast<double>(churn_cpu)},
       {"edges_end", static_cast<double>(cluster.NumEdges())}});

  PacingReport churn_report;
  churn_report.generator = "churn";
  churn_report.phase = "all";
  churn_report.lateness_p99_ms = Percentile(churn_paced.lateness_ms, 99);
  churn_report.lateness_max_ms = Percentile(churn_paced.lateness_ms, 100);
  churn_report.backlog_end =
      static_cast<double>(churn_paced.due_at_stop - churn_paced.sent);
  churn_report.backlog_limit = 2.0;
  churn_report.lateness_limit_ms = 10.0;
  result.pacing.push_back(churn_report);

  // --- correctness -----------------------------------------------------------
  const serve::ServeStats stats = server.Stats();
  result.Check("serve.outcomes_balance",
               stats.ok + stats.degraded + stats.shed + stats.rejected +
                       stats.invalid ==
                   stats.submitted,
               "ok+degraded+shed+rejected+invalid != submitted (" +
                   std::to_string(stats.submitted) + ")");
  result.Check("serve.all_taken", driver.outstanding() == 0,
               std::to_string(driver.outstanding()) + " never completed");
  std::size_t bad = 0;
  for (const auto& [req, resp] : driver.checked()) {
    bad += BadOutputs(req, resp, allowed, input, opt.seed);
  }
  result.Check("serve.responses_match_graph",
               bad == 0 && !driver.checked().empty(),
               std::to_string(bad) + " bad outputs in " +
                   std::to_string(driver.checked().size()) + " responses");
  result.Check("serve.churn_applied", churn_failures == 0,
               std::to_string(churn_failures) + " ApplyBatch failures");

  // --- per layer (traced run) ------------------------------------------------
  if (opt.trace) {
    const double batches =
        static_cast<double>(serve1.Value("pd2gl_serve_batches") -
                            serve0.Value("pd2gl_serve_batches"));
    const double batched =
        static_cast<double>(serve1.Value("pd2gl_serve_batched_requests") -
                            serve0.Value("pd2gl_serve_batched_requests"));
    const double rounds =
        static_cast<double>(serve1.Value("pd2gl_serve_rpc_rounds") -
                            serve0.Value("pd2gl_serve_rpc_rounds"));
    const double lookups =
        static_cast<double>((cache1.hits - cache0.hits) +
                            (cache1.stale_hits - cache0.stale_hits) +
                            (cache1.misses - cache0.misses));
    std::vector<double> submit_us = driver.log().DurationsMs("serve.submit");
    for (double& v : submit_us) v *= 1e3;
    const std::vector<double> pump = driver.log().DurationsMs("serve.pump");
    const double submit_ms = Sum(submit_us) / 1e3;
    result.layers = {
        {"serve.submit_us.p50", Percentile(submit_us, 50)},
        {"serve.pump_ms.p50", Percentile(pump, 50)},
        {"serve.pump_ms.p99", Percentile(pump, 99)},
        {"serve.driver_busy_share", open_pump_ms / (open_wall_s * 1e3)},
        {"serve.mean_batch", batches > 0 ? batched / batches : 0.0},
        {"serve.rpc_rounds_per_request", batched > 0 ? rounds / batched : 0.0},
        {"serve.failed_ratio",
         result.attempted > 0 ? static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)
                              : 0.0},
        {"sampling.cache_hit_ratio",
         lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups
                     : 0.0},
        {"storage.topology_bytes", static_cast<double>(mem.topology_bytes)},
        {"storage.index_bytes", static_cast<double>(mem.index_bytes)},
        {"dist.rpc_compute_ms_per_request",
         batched > 0 ? EstimatedSumNs(rpc) / 1e6 / batched : 0.0},
        {"dist.load_imbalance", cluster.LoadImbalance()},
        {"dist.apply_batch_ms.p50",
         Percentile(churn_log.DurationsMs("dist.apply_batch"), 50)},
        // Share of the driver's time inside Submit and working Pump calls.
        {"trace.accounted_share", (submit_ms + Sum(pump)) / rounds_ms},
    };
    result.span_logs.push_back(std::move(driver.log()));
    result.span_logs.push_back(std::move(churn_log));
  }
  return result;
}

}  // namespace perfbench
