// Shared pieces of the wall-clock benchmark harness: inputs generated from
// the workload seed, the bulk loaders whose time is setup_s, timing and
// percentile helpers, the in-memory span log of the traced run, and the
// result record every workload fills.
//
// Everything here sits outside the library: the harness only calls the
// library's public API and times those calls from the outside.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.h"
#include "dist/cluster.h"
#include "pipeline/update_ingestor.h"
#include "storage/graph_store.h"
#include "temporal/edge_log.h"

namespace perfbench {

using platod2gl::Edge;
using platod2gl::EdgeUpdate;
using platod2gl::TimedUpdate;
using platod2gl::UpdateKind;
using platod2gl::VertexId;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (pct in [0, 100]) of an unsorted
/// sample; 0 for an empty sample.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);

// --- Inputs ---------------------------------------------------------------

inline constexpr std::size_t kFeatureDim = 32;
inline constexpr std::int64_t kNumClasses = 8;

/// ogbn-mini (gen/datasets.h) regenerated from the workload seed: the same
/// R-MAT shape and size (PLATOD2GL_SCALE applies), bi-directed and
/// deduplicated, plus one feature row and label per vertex.
struct GraphInput {
  std::vector<Edge> edges;
  /// Every source vertex, by out-degree descending (ties by id): rank 0 is
  /// the hottest vertex, which is how the Zipf draws below pick vertices.
  std::vector<VertexId> by_degree;
  std::vector<std::vector<float>> features;  ///< parallel to by_degree
  std::vector<std::int64_t> labels;          ///< parallel to by_degree
  /// Out-neighbours per rank (parallel to by_degree), in edge order.
  std::vector<std::vector<std::uint32_t>> adjacency;
  std::size_t id_space = 0;  ///< vertex ids lie in [0, id_space)
};
GraphInput MakeGraphInput(std::uint64_t seed);

/// The feature row the loaders store for vertex v (a pure function of the
/// seed, so a response can be checked without the store).
std::vector<float> FeaturesOf(VertexId v, std::uint64_t seed);

/// A timestamped update stream over `graph` whose deletes and in-place
/// updates always target an edge that exists at that point of the stream
/// and whose inserts always add a new edge. Sources are Zipf(zipf_s) over
/// vertices sorted by degree, so hot samtrees grow and split. Timestamps
/// are 1..n in stream order.
struct StreamMix {
  double insert = 0.6;
  double update = 0.2;  ///< the remainder deletes
  double zipf_s = 0.8;
};
std::vector<TimedUpdate> MakeUpdateStream(const GraphInput& graph,
                                          std::size_t n, StreamMix mix,
                                          std::uint64_t seed);

/// Set of (src, dst) edge keys (EdgeKey); ids must fit in 32 bits.
using EdgeKeySet = std::unordered_set<std::uint64_t>;
inline std::uint64_t EdgeKey(VertexId src, VertexId dst) {
  return (src << 32) | dst;
}

// --- Setup (the timed part of setup_s) -------------------------------------

/// Bulk-load edges, features and labels into a fresh GraphStore.
std::unique_ptr<platod2gl::GraphStore> LoadStore(const GraphInput& graph);

/// Bulk-load the same input into a fresh cluster: edges through
/// GraphCluster::ApplyBatch, attributes onto the owning shard.
std::unique_ptr<platod2gl::GraphCluster> LoadCluster(
    const GraphInput& graph, const platod2gl::ClusterConfig& config);

/// Sum of TopologyMemory() over the cluster's shards.
platod2gl::MemoryBreakdown ClusterMemory(const platod2gl::GraphCluster& c);

// --- Pipeline ---------------------------------------------------------------

/// The ingestor both pipeline workloads use: one queue as large as the
/// library default's four together (4 x 4096). Their single producer gains
/// nothing from sharding, and with more than one shard
/// UpdateIngestor::DrainAll empties the shards one after another while the
/// producer keeps offering, so a pump can take one shard's newer updates
/// before another shard's older ones and the WAL refuses the older ones (a
/// library defect, see README.md). One queue drains in one critical
/// section, in offer order. The no-drop checks stay on either way.
inline platod2gl::IngestorConfig PipelineIngestorConfig() {
  return platod2gl::IngestorConfig{
      .num_shards = 1, .shard_capacity = 4 * 4096, .num_relations = 1};
}

// --- Placement ----------------------------------------------------------------

/// Pin the calling thread, and every thread it starts afterwards, to the
/// `index`-th CPU the process could run on before its first pin. Returns
/// that CPU's id, or -1 when there are no more than `index` such CPUs or
/// the call fails (the thread is then left where it was).
int PinThisThread(std::size_t index);

// --- Tracing -----------------------------------------------------------------

/// One timed call into a layer. `name` is "<layer>.<call>"; `parent` is the
/// index of the enclosing span in the same log (-1 for a root); `op` is the
/// step, request or batch id the call served.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// Spans of one thread, kept in memory until the run ends. Not shared
/// between threads.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {}
  std::int32_t Begin(const char* name, std::int32_t parent, std::uint64_t op) {
    spans_.push_back(Span{name, NowNs(), 0, parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void End(std::int32_t index) { spans_[index].end_ns = NowNs(); }
  /// A root span timed by the caller (kept only when the call did work).
  void AddRoot(const char* name, std::int64_t start_ns, std::int64_t end_ns,
               std::uint64_t op) {
    spans_.push_back(Span{name, start_ns, end_ns, -1, op});
  }
  void Clear() { spans_.clear(); }

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in ms of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

 private:
  std::string thread_;
  std::vector<Span> spans_;
};

/// Per-layer self time (span duration minus the part its children cover),
/// summed over every log, in seconds. Layer = the span name up to its
/// first '.'.
std::vector<std::pair<std::string, double>> SelfSecondsByLayer(
    const std::vector<SpanLog>& logs);

// --- Open-loop pacing -------------------------------------------------------

struct PacedStats {
  std::size_t sent = 0;
  std::size_t due_at_stop = 0;  ///< items whose send time had passed
  std::vector<double> lateness_ms;  ///< actual minus scheduled, per item
};

/// Item i is due at start_ns + i * period_ns. Calls send(i) for every due
/// item, in order, until `stop` is set or all `count` items are sent, and
/// while nothing is due sleeps until the next item is, but at least 1 ms: a
/// generator that woke for every item (every 50 us at 20k/s) disturbed the
/// threads it was measuring, so short-period items go out in bursts up to
/// ~1 ms late, which the lateness report shows. A stall makes later items
/// later; they are still sent.
template <typename F>
PacedStats RunPaced(std::int64_t start_ns, double period_ns, std::size_t count,
                    const std::atomic<bool>& stop, F&& send) {
  PacedStats st;
  auto due_now = [&](std::int64_t now) {
    if (now < start_ns) return std::size_t{0};
    const auto due = static_cast<std::size_t>(
                         static_cast<double>(now - start_ns) / period_ns) +
                     1;
    return std::min(due, count);
  };
  // order: stop flag polled between sends; join() publishes the rest.
  while (!stop.load(std::memory_order_acquire) && st.sent < count) {
    const std::int64_t now = NowNs();
    const std::size_t due = due_now(now);
    if (st.sent >= due) {
      const auto next_ns = start_ns + static_cast<std::int64_t>(
                                          static_cast<double>(st.sent) *
                                          period_ns);
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::max<std::int64_t>(1000000, next_ns - now)));
      continue;
    }
    for (; st.sent < due && !stop.load(std::memory_order_acquire);
         ++st.sent) {
      const auto sched = start_ns + static_cast<std::int64_t>(
                                        static_cast<double>(st.sent) *
                                        period_ns);
      st.lateness_ms.push_back(static_cast<double>(NowNs() - sched) / 1e6);
      send(st.sent);
    }
  }
  st.due_at_stop = due_now(NowNs());
  return st;
}

// --- Results -----------------------------------------------------------------

/// Generator health of one paced (open-loop) phase.
struct PacingReport {
  std::string generator;
  std::string phase;
  double lateness_p99_ms = 0.0;
  double lateness_max_ms = 0.0;
  double backlog_end = 0.0;    ///< due-but-unserved work at the phase end
  double backlog_limit = 0.0;  ///< above this the backlog counts as grown
  double lateness_limit_ms = 0.0;
  bool behind() const { return lateness_p99_ms > lateness_limit_ms; }
  bool backlog_grew() const { return backlog_end > backlog_limit; }
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;  ///< name, passed
  std::vector<std::string> check_details;            ///< failures only
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layers;  ///< traced run only
  std::vector<std::pair<std::string, double>> counts;  ///< context, no bound
  std::vector<std::pair<std::string, int>> threads;
  std::vector<PacingReport> pacing;
  std::vector<SpanLog> span_logs;  ///< traced run only

  void Check(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;
};

/// Bulk loads per run; setup_s is their median, so that one slow load (the
/// machine's speed moves by up to 1.8x) does not set it. Three, not more:
/// the loads' time is better spent on a longer measured phase.
inline constexpr int kSetupReps = 3;

/// Run `setup` `reps` times, keep what the first `keep` calls return, and
/// report the median wall time as setup_s.
template <typename T, typename F>
std::vector<std::unique_ptr<T>> TimedSetup(int reps, int keep, F&& setup,
                                           Result* result) {
  std::vector<std::unique_ptr<T>> kept;
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = NowNs();
    std::unique_ptr<T> made = setup();
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (r < keep) kept.push_back(std::move(made));
  }
  result->e2e.emplace_back("setup_s", Median(secs));
  result->counts.insert(
      result->counts.end(),
      {{"setup_reps", static_cast<double>(reps)},
       {"setup_s.min", *std::min_element(secs.begin(), secs.end())},
       {"setup_s.max", *std::max_element(secs.begin(), secs.end())}});
  return kept;
}

/// Latency samples (ms) where a failed operation is +infinity: the
/// percentile of such a sample is infinite once failures reach its tail.
/// Reported as `cap_ms` (the phase length) in that case.
double PercentileWithFailures(const std::vector<double>& ok_ms,
                              std::size_t failures, double pct, double cap_ms);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Result RunTrainStream(const Options& opt);
Result RunIngestBurst(const Options& opt);
Result RunServeZipf(const Options& opt);

}  // namespace perfbench
