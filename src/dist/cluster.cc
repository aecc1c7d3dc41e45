#include "dist/cluster.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/timer.h"
#include "dist/wire.h"

namespace platod2gl {

namespace {
/// Salt deriving the per-shard sampling RNG stream from the caller's seed.
/// Retries re-derive the same stream, so fault runs sample identically to
/// fault-free runs (tested in test_fault_tolerance.cc).
constexpr std::uint64_t kShardSeedSalt = 0xD1B54A32D192ED03ULL;

/// Request bytes of a sample, traverse or gather RPC: one SampleRequest
/// per item group bundled into it (gather ships ids as seeds).
constexpr auto kSampleRequestsBytes = [](const auto& on_shard) {
  std::size_t bytes = 0;
  for (const auto& grp : on_shard) {
    bytes += wire::SampleRequestBytes(grp.positions.size());
  }
  return bytes;
};
}  // namespace

GraphCluster::GraphCluster(ClusterConfig config)
    : config_(config),
      partitioner_(config.num_shards),
      pool_(config.num_client_threads),
      injector_(config.fault, config.num_shards) {
  counters_.rpcs = metrics_.RegisterCounter("pd2gl_cluster_rpcs");
  counters_.virtual_network_us =
      metrics_.RegisterCounter("pd2gl_cluster_virtual_network_us");
  counters_.bytes_sent = metrics_.RegisterCounter("pd2gl_cluster_bytes_sent");
  counters_.bytes_received =
      metrics_.RegisterCounter("pd2gl_cluster_bytes_received");
  counters_.retries = metrics_.RegisterCounter("pd2gl_cluster_retries");
  counters_.transient_faults =
      metrics_.RegisterCounter("pd2gl_cluster_transient_faults");
  counters_.corrupt_responses =
      metrics_.RegisterCounter("pd2gl_cluster_corrupt_responses");
  counters_.deadline_hits =
      metrics_.RegisterCounter("pd2gl_cluster_deadline_hits");
  counters_.crash_rejections =
      metrics_.RegisterCounter("pd2gl_cluster_crash_rejections");
  counters_.degraded_seeds =
      metrics_.RegisterCounter("pd2gl_cluster_degraded_seeds");
  counters_.wal_handoffs =
      metrics_.RegisterCounter("pd2gl_cluster_wal_handoffs");
  counters_.lost_updates =
      metrics_.RegisterCounter("pd2gl_cluster_lost_updates");
  counters_.recoveries = metrics_.RegisterCounter("pd2gl_cluster_recoveries");
  counters_.replayed_updates =
      metrics_.RegisterCounter("pd2gl_cluster_replayed_updates");
  counters_.replica_read_seeds =
      metrics_.RegisterCounter("pd2gl_cluster_replica_read_seeds");
  counters_.stale_replica_seeds =
      metrics_.RegisterCounter("pd2gl_cluster_stale_replica_seeds");
  counters_.failovers = metrics_.RegisterCounter("pd2gl_cluster_failovers");
  counters_.failover_replayed =
      metrics_.RegisterCounter("pd2gl_cluster_failover_replayed");
  counters_.digest_rounds =
      metrics_.RegisterCounter("pd2gl_cluster_digest_rounds");
  counters_.digest_mismatches =
      metrics_.RegisterCounter("pd2gl_cluster_digest_mismatches");
  counters_.antientropy_repairs =
      metrics_.RegisterCounter("pd2gl_cluster_antientropy_repairs");
  counters_.antientropy_edges =
      metrics_.RegisterCounter("pd2gl_cluster_antientropy_edges");
  metrics_.RegisterExternalHistogram("pd2gl_cluster_rpc_compute_nanos", {},
                                     &rpc_latency_);

  shards_.reserve(partitioner_.num_shards());
  shard_seed_counters_.reserve(partitioner_.num_shards());
  shard_gather_counters_.reserve(partitioner_.num_shards());
  for (std::size_t i = 0; i < partitioner_.num_shards(); ++i) {
    shards_.push_back(std::make_unique<GraphShard>(config_.shard_config));
    const obs::Labels shard_label{{"shard", std::to_string(i)}};
    shard_seed_counters_.push_back(
        metrics_.RegisterCounter("pd2gl_shard_sample_seeds", shard_label));
    shard_gather_counters_.push_back(
        metrics_.RegisterCounter("pd2gl_shard_gather_ids", shard_label));
    RegisterShardCache(i);
  }
  if (config_.replication.num_replicas > 0) {
    std::vector<GraphShard*> primaries;
    primaries.reserve(shards_.size());
    for (auto& s : shards_) primaries.push_back(s.get());
    replication_ = std::make_unique<ReplicationManager>(
        config_.replication, config_.shard_config, std::move(primaries),
        &injector_, &cutover_, &metrics_);
  }
}

void GraphCluster::RegisterShardCache(std::size_t i) {
  if (SampleCache* cache = shards_[i]->store().sample_cache()) {
    cache->RegisterWith(&metrics_, {{"shard", std::to_string(i)}});
  }
}

void GraphCluster::ReplicationHealthCheck() {
  if (!replication_) return;
  const ReplicationManager::HealthReport health =
      replication_->AdvanceTime(counters_.virtual_network_us->Value());
  counters_.failovers->Add(health.failovers);
  counters_.failover_replayed->Add(health.replayed_entries);
  if (health.failovers == 0) return;
  // A promotion installed a replica's store (and its cache) on the shard.
  for (std::size_t i = 0; i < shards_.size(); ++i) RegisterShardCache(i);
}

void GraphCluster::PumpReplication() {
  if (!replication_) return;
  replication_->Kick();
  ReplicationHealthCheck();
}

void GraphCluster::AdvanceVirtualTime(std::uint64_t us) {
  counters_.virtual_network_us->Add(us);
  ReplicationHealthCheck();
}

Status GraphCluster::FlushReplication() {
  if (!replication_) return Status::Ok();
  return replication_->Flush();
}

ReplicationManager::AntiEntropyReport GraphCluster::RunAntiEntropy() {
  if (!replication_) return {};
  const ReplicationManager::AntiEntropyReport r =
      replication_->RunAntiEntropyAll();
  counters_.digest_rounds->Add(r.digest_rounds);
  counters_.digest_mismatches->Add(r.digest_mismatches);
  counters_.antientropy_repairs->Add(r.repaired_replicas);
  counters_.antientropy_edges->Add(r.repaired_edges);
  return r;
}

void GraphCluster::CrashReplica(std::size_t s, std::size_t r) {
  injector_.CrashReplica(s, r);
  // The replica process died: its volatile store is gone with it.
  if (replication_) replication_->WipeReplica(s, r);
}

void GraphCluster::RecoverReplica(std::size_t s, std::size_t r) {
  // Rejoin empty; the next ship round replays the log (or bootstraps a
  // snapshot when the log was truncated past seq 0).
  injector_.RestoreReplica(s, r);
}

void GraphCluster::PartitionReplica(std::size_t s, std::size_t r) {
  injector_.PartitionReplica(s, r);
}

void GraphCluster::HealReplica(std::size_t s, std::size_t r) {
  injector_.HealReplica(s, r);
}

template <typename Body>
GraphCluster::RpcOutcome GraphCluster::RunRpc(std::size_t s, Body&& body) {
  const RetryPolicy& retry = config_.retry;
  const std::size_t max_attempts =
      std::max<std::size_t>(std::size_t{1}, retry.max_attempts);
  RpcOutcome out;
  std::uint64_t backoff = retry.initial_backoff_us;
  // Deterministic backoff jitter, drawn from a stream unrelated to both
  // the fault decisions and the sampling RNGs.
  SplitMix64 jitter(config_.fault.seed ^ (0xBF58476D1CE4E5B9ULL * (s + 1)));
  while (true) {
    ++out.attempts;
    if (injector_.IsCrashed(s)) {
      // Connection refused: the serving process is dead. Probing still
      // costs a round trip in virtual time.
      ++out.crash_rejections;
      out.virtual_us += config_.rpc_latency_us;
    } else {
      switch (injector_.NextFault(s)) {
        case FaultInjector::Fault::kNone:
          out.virtual_us += config_.rpc_latency_us;
          if (body(/*corrupt=*/false, out)) out.delivered = true;
          break;
        case FaultInjector::Fault::kSlow:
          out.virtual_us +=
              config_.rpc_latency_us + config_.fault.slow_extra_us;
          if (body(/*corrupt=*/false, out)) out.delivered = true;
          break;
        case FaultInjector::Fault::kFail:  // request lost in flight
          out.virtual_us += config_.rpc_latency_us;
          ++out.transient_faults;
          break;
        case FaultInjector::Fault::kTimeout:  // response never arrives
          out.virtual_us += std::max(config_.rpc_latency_us, retry.timeout_us);
          ++out.transient_faults;
          break;
        case FaultInjector::Fault::kCorrupt:  // response damaged in flight
          out.virtual_us += config_.rpc_latency_us;
          ++out.transient_faults;
          ++out.corrupt;
          if (body(/*corrupt=*/true, out)) out.delivered = true;
          break;
      }
    }
    if (out.delivered) break;
    if (out.virtual_us >= retry.deadline_us) {
      out.deadline_hit = true;
      break;
    }
    if (out.attempts >= max_attempts) break;
    // Exponential backoff with ±25% jitter — virtual time, never slept.
    std::uint64_t wait = backoff;
    const std::uint64_t j = backoff / 4;
    if (j > 0) wait = backoff - j + jitter.Next() % (2 * j + 1);
    if (out.virtual_us + wait >= retry.deadline_us) {
      out.deadline_hit = true;
      break;
    }
    out.virtual_us += wait;
    backoff = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(static_cast<double>(backoff) *
                                   retry.backoff_multiplier),
        retry.max_backoff_us);
  }
  return out;
}

template <typename Size, typename Key>
GraphCluster::ShardGroups GraphCluster::GroupByShard(std::size_t num_items,
                                                     Size&& size,
                                                     Key&& key) const {
  ShardGroups groups(shards_.size());
  for (std::size_t w = 0; w < num_items; ++w) {
    const std::size_t n = size(w);
    for (std::size_t i = 0; i < n; ++i) {
      // Items go in order: item w's group on a shard is its last, if any.
      std::vector<ShardGroup>& on_shard =
          groups[partitioner_.ShardOf(key(w, i))];
      if (on_shard.empty() || on_shard.back().item != w) {
        on_shard.push_back(ShardGroup{w, {}});
      }
      on_shard.back().positions.push_back(i);
    }
  }
  return groups;
}

template <typename Call, typename RequestBytes>
GraphCluster::Round GraphCluster::RunRound(
    const ShardGroups& groups, Call&& call, RequestBytes&& request_bytes,
    const std::vector<obs::Counter*>* load) {
  Round round;
  round.outcomes.resize(shards_.size());
  std::vector<std::size_t> touched;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (!groups[s].empty()) touched.push_back(s);
  }
  // Fan out: one logical RPC (with retries) per touched shard, in parallel.
  pool_.ParallelFor(touched.size(), [&](std::size_t t) {
    const std::size_t s = touched[t];
    round.outcomes[s] = call(s, groups[s]);
  });
  // Merge, serially.
  for (const std::size_t s : touched) {
    const RpcOutcome& out = round.outcomes[s];
    counters_.rpcs->Add(out.attempts);
    counters_.virtual_network_us->Add(out.virtual_us);
    counters_.retries->Add(out.attempts - 1);
    counters_.transient_faults->Add(out.transient_faults);
    counters_.corrupt_responses->Add(out.corrupt);
    counters_.crash_rejections->Add(out.crash_rejections);
    if (out.deadline_hit) counters_.deadline_hits->Add();
    counters_.bytes_sent->Add(out.attempts * request_bytes(groups[s]));
    counters_.bytes_received->Add(out.resp_bytes);
    if (load != nullptr) {
      std::size_t keys = 0;
      for (const ShardGroup& grp : groups[s]) keys += grp.positions.size();
      (*load)[s]->Add(keys);
    }
    round.virtual_us = std::max(round.virtual_us, out.virtual_us);
  }
  return round;
}

GraphCluster::RpcOutcome GraphCluster::DeliverUpdates(
    std::size_t s, const std::vector<EdgeUpdate>& batch,
    const std::vector<std::size_t>& positions) {
  if (injector_.IsCrashed(s)) {
    // Hinted handoff: the durable log service outlives the serving
    // process (GNNFlow-style — the update log is the recovery substrate).
    // Write the updates straight to the shard's WAL; RecoverShard replays
    // them. One virtual RPC to the log, acked.
    for (std::size_t pos : positions) shards_[s]->Apply(batch[pos]);
    return RpcOutcome{.delivered = true, .handoff = true, .attempts = 1,
                      .virtual_us = config_.rpc_latency_us, .resp_bytes = 1};
  }
  return RunRpc(s, [&](bool corrupt, RpcOutcome& out) {
    if (corrupt) {
      // A damaged ack is indistinguishable from a lost request; the
      // attempt is modelled as not applied, preserving exactly-once
      // delivery across the retry.
      return false;
    }
    Timer rpc;
    for (std::size_t pos : positions) shards_[s]->Apply(batch[pos]);
    rpc_latency_.RecordMicros(rpc.ElapsedMicros());
    out.resp_bytes += 1;  // ack
    return true;
  });
}

Status GraphCluster::Apply(const EdgeUpdate& update) {
  return ApplyBatch({update});
}

Status GraphCluster::ApplyBatch(const std::vector<EdgeUpdate>& batch) {
  const ShardGroups groups = GroupByShard(
      1, [&](std::size_t) { return batch.size(); },
      [&](std::size_t, std::size_t i) { return batch[i].edge.src; });
  const Round round = RunRound(
      groups,
      [&](std::size_t s, const std::vector<ShardGroup>& on_shard) {
        return DeliverUpdates(s, batch, on_shard[0].positions);
      },
      [](const std::vector<ShardGroup>& on_shard) {
        return wire::UpdateBatchBytes(on_shard[0].positions.size());
      },
      nullptr);
  Status result = Status::Ok();
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    const std::size_t n = groups[s][0].positions.size();
    const RpcOutcome& out = round.outcomes[s];
    if (out.handoff) counters_.wal_handoffs->Add(n);
    if (!out.delivered) {
      counters_.lost_updates->Add(n);
      if (result.ok()) {
        result = Status::DeadlineExceeded(
            std::to_string(n) + " updates lost: shard " + std::to_string(s) +
            " unreachable past the retry budget");
      }
    }
  }
  PumpReplication();
  return result;
}

template <typename Work, typename Fill, typename Fallback>
MultiSampleReport GraphCluster::NeighborRound(const std::vector<Work>& work,
                                              Fill&& fill,
                                              Fallback&& fallback) {
  MultiSampleReport multi;
  multi.reports.resize(work.size());
  if (work.empty()) return multi;

  // results[w][i] = range for (*work[w].seeds)[i].
  std::vector<std::vector<std::vector<VertexId>>> results(work.size());
  for (std::size_t w = 0; w < work.size(); ++w) {
    results[w].resize(work[w].seeds->size());
    multi.reports[w].seed_status.assign(work[w].seeds->size(), SeedStatus::kOk);
  }
  const ShardGroups groups = GroupByShard(
      work.size(), [&](std::size_t w) { return work[w].seeds->size(); },
      [&](std::size_t w, std::size_t i) { return (*work[w].seeds)[i]; });
  const Round round = RunRound(
      groups,
      [&](std::size_t s, const std::vector<ShardGroup>& on_shard) {
        return RunRpc(s, [&](bool corrupt, RpcOutcome& out) {
          Timer rpc;
          // local[g][i] = range for on_shard[g].positions[i]. `fill`
          // re-derives any RNG state per item per attempt, so a retry
          // replays the exact draw sequence and batching never perturbs
          // an item's stream.
          std::vector<std::vector<std::vector<VertexId>>> local(
              on_shard.size());
          for (std::size_t g = 0; g < on_shard.size(); ++g) {
            local[g].resize(on_shard[g].positions.size());
            fill(s, work[on_shard[g].item], on_shard[g].positions, &local[g]);
          }
          rpc_latency_.RecordMicros(rpc.ElapsedMicros());
          // One SampleResponse per item group bundled into the RPC, shipped
          // whether or not it is damaged on the way.
          for (const auto& item_local : local) {
            std::size_t neighbors = 0;
            for (const auto& r : item_local) neighbors += r.size();
            out.resp_bytes +=
                wire::SampleResponseBytes(item_local.size(), neighbors);
          }
          if (corrupt) {
            // Ship the response through the real codec, damage it in
            // flight, and let the hardened decoder judge it
            // (docs/fault_tolerance.md): only a decode equal to what the
            // shard sent is accepted; anything else is retried.
            NeighborBatch sent;
            sent.offsets.push_back(0);
            for (const auto& item_local : local) {
              for (const auto& r : item_local) {
                sent.neighbors.insert(sent.neighbors.end(), r.begin(),
                                      r.end());
                sent.offsets.push_back(sent.neighbors.size());
              }
            }
            std::string bytes = wire::EncodeSampleResponse(sent);
            injector_.CorruptBytes(s, &bytes);
            NeighborBatch decoded;
            if (wire::DecodeSampleResponse(bytes, &decoded) !=
                    wire::DecodeResult::kOk ||
                decoded.offsets != sent.offsets ||
                decoded.neighbors != sent.neighbors) {
              return false;
            }
          }
          for (std::size_t g = 0; g < on_shard.size(); ++g) {
            const ShardGroup& grp = on_shard[g];
            for (std::size_t i = 0; i < grp.positions.size(); ++i) {
              results[grp.item][grp.positions[i]] = std::move(local[g][i]);
            }
          }
          return true;
        });
      },
      kSampleRequestsBytes, &shard_seed_counters_);
  multi.round_virtual_us = round.virtual_us;

  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty() || round.outcomes[s].delivered) continue;
    for (const ShardGroup& grp : groups[s]) {
      SampleReport& report = multi.reports[grp.item];
      if (fallback(s, work[grp.item], grp.positions, &results[grp.item],
                   &report)) {
        continue;
      }
      // Degrade this item's seeds on this shard: empty ranges, flagged.
      for (std::size_t pos : grp.positions) {
        results[grp.item][pos].clear();
        report.seed_status[pos] = SeedStatus::kDegraded;
      }
      report.degraded_seeds += grp.positions.size();
      counters_.degraded_seeds->Add(grp.positions.size());
    }
  }
  // Sampling ships nothing new, but its virtual-time cost does age
  // suspicions — the health monitor runs so a dead primary eventually
  // fails over under a read-only workload too.
  ReplicationHealthCheck();

  // Re-assemble each item in seed order.
  for (std::size_t w = 0; w < work.size(); ++w) {
    SampleReport& report = multi.reports[w];
    report.batch.offsets.reserve(work[w].seeds->size() + 1);
    report.batch.offsets.push_back(0);
    for (const auto& r : results[w]) {
      report.batch.neighbors.insert(report.batch.neighbors.end(), r.begin(),
                                    r.end());
      report.batch.offsets.push_back(report.batch.neighbors.size());
    }
  }
  return multi;
}

MultiSampleReport GraphCluster::SampleMany(
    const std::vector<SampleWorkItem>& work) {
  return NeighborRound(
      work,
      [&](std::size_t s, const SampleWorkItem& w,
          const std::vector<std::size_t>& positions,
          std::vector<std::vector<VertexId>>* local) {
        // Fresh RNG per item per attempt: batched results are
        // bit-identical to issuing the item alone, and a retry replays
        // the exact draw sequence of the failed attempt.
        Xoshiro256 rng(w.rng_seed ^ (kShardSeedSalt * (s + 1)));
        for (std::size_t i = 0; i < positions.size(); ++i) {
          shards_[s]->SampleNeighbors((*w.seeds)[positions[i]], w.fanout,
                                      w.weighted, rng, &(*local)[i], w.type);
        }
      },
      [&](std::size_t s, const SampleWorkItem& w,
          const std::vector<std::size_t>& positions,
          std::vector<std::vector<VertexId>>* item_results,
          SampleReport* report) {
        // Bounded-staleness fallback: an unreachable primary's seeds may
        // be served by its freshest replica if one is within the
        // staleness budget — real data flagged kStale, not an empty
        // degraded marker. Seeded identically to the primary attempt, so
        // a caught-up replica returns bit-identical samples. Only on
        // primary failure: a fault-free run never touches replicas and
        // stays bit-identical to a replication-disabled run.
        if (replication_ == nullptr) return false;
        std::vector<VertexId> group_seeds;
        group_seeds.reserve(positions.size());
        for (std::size_t pos : positions) {
          group_seeds.push_back((*w.seeds)[pos]);
        }
        std::optional<ReplicationManager::ReplicaServe> serve =
            replication_->SampleFromReplica(
                s, group_seeds, w.fanout, w.weighted,
                w.rng_seed ^ (kShardSeedSalt * (s + 1)), w.type);
        if (!serve.has_value()) return false;
        for (std::size_t i = 0; i < positions.size(); ++i) {
          (*item_results)[positions[i]] = std::move(serve->neighbors[i]);
          report->seed_status[positions[i]] = SeedStatus::kStale;
        }
        counters_.replica_read_seeds->Add(positions.size());
        if (serve->lag > 0) counters_.stale_replica_seeds->Add(positions.size());
        return true;
      });
}

SampleReport GraphCluster::SampleNeighborsChecked(
    const std::vector<VertexId>& seeds, std::size_t fanout, bool weighted,
    std::uint64_t seed, EdgeType type) {
  return std::move(
      SampleMany({SampleWorkItem{&seeds, fanout, weighted, seed, type}})
          .reports[0]);
}

MultiSampleReport GraphCluster::TraverseMany(
    const std::vector<TraverseWorkItem>& work) {
  return NeighborRound(
      work,
      [&](std::size_t s, const TraverseWorkItem& w,
          const std::vector<std::size_t>& positions,
          std::vector<std::vector<VertexId>>* local) {
        for (std::size_t i = 0; i < positions.size(); ++i) {
          shards_[s]->Traverse((*w.seeds)[positions[i]], w.cap, &(*local)[i],
                               w.type);
        }
      },
      [](auto&&...) {
        // No replica fallback for traversal: degraded frontiers must stay
        // visible to the serving layer's SLO accounting.
        return false;
      });
}

MultiGatherReport GraphCluster::GatherMany(
    const std::vector<GatherWorkItem>& work) {
  MultiGatherReport multi;
  multi.reports.resize(work.size());
  if (work.empty()) return multi;

  // rows[w][i] = feature vector for (*work[w].ids)[i] (empty = zero row).
  std::vector<std::vector<std::vector<float>>> rows(work.size());
  for (std::size_t w = 0; w < work.size(); ++w) {
    rows[w].resize(work[w].ids->size());
    multi.reports[w].row_status.assign(work[w].ids->size(), SeedStatus::kOk);
  }
  const ShardGroups groups = GroupByShard(
      work.size(), [&](std::size_t w) { return work[w].ids->size(); },
      [&](std::size_t w, std::size_t i) { return (*work[w].ids)[i]; });
  const Round round = RunRound(
      groups,
      [&](std::size_t s, const std::vector<ShardGroup>& on_shard) {
        return RunRpc(s, [&](bool corrupt, RpcOutcome& out) {
          if (corrupt) {
            // A damaged feature payload fails its checksum; modelled as a
            // rejected response so RunRpc retries (same stance as update
            // acks).
            return false;
          }
          Timer rpc;
          // Feature rows have no codec; their layout is a SampleResponse's
          // with f32 payloads: header + per id (4 B len + 4 B each).
          std::uint64_t resp = 0;
          std::vector<float> row;
          for (const ShardGroup& grp : on_shard) {
            const std::vector<VertexId>& ids = *work[grp.item].ids;
            resp += 5;
            for (std::size_t pos : grp.positions) {
              shards_[s]->GatherFeatures(ids[pos], &row);
              resp += 4 + row.size() * sizeof(float);
              rows[grp.item][pos] = row;
            }
          }
          rpc_latency_.RecordMicros(rpc.ElapsedMicros());
          out.resp_bytes += resp;
          return true;
        });
      },
      kSampleRequestsBytes, &shard_gather_counters_);
  multi.round_virtual_us = round.virtual_us;

  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty() || round.outcomes[s].delivered) continue;
    for (const ShardGroup& grp : groups[s]) {
      GatherReport& report = multi.reports[grp.item];
      for (std::size_t pos : grp.positions) {
        rows[grp.item][pos].clear();
        report.row_status[pos] = SeedStatus::kDegraded;
      }
      report.degraded_rows += grp.positions.size();
    }
  }
  ReplicationHealthCheck();

  // Dense [ids x dim] assembly; dim = widest row seen this round, shorter
  // or absent rows are zero-padded.
  std::size_t dim = 0;
  for (const auto& item_rows : rows) {
    for (const auto& r : item_rows) dim = std::max(dim, r.size());
  }
  multi.dim = static_cast<std::uint32_t>(dim);
  for (std::size_t w = 0; w < work.size(); ++w) {
    GatherReport& report = multi.reports[w];
    report.features.assign(rows[w].size() * dim, 0.0f);
    for (std::size_t i = 0; i < rows[w].size(); ++i) {
      const std::vector<float>& r = rows[w][i];
      std::copy(r.begin(), r.end(),
                report.features.begin() +
                    static_cast<std::ptrdiff_t>(i * dim));
    }
  }
  return multi;
}

void GraphCluster::CrashShard(std::size_t i) {
  injector_.CrashShard(i);
  shards_[i]->Crash();
  RegisterShardCache(i);
}

Status GraphCluster::RecoverShard(std::size_t i) {
  std::size_t replayed = 0;
  Status s = shards_[i]->Recover(&replayed);
  if (!s.ok()) return s;
  RegisterShardCache(i);
  injector_.RestoreShard(i);
  counters_.recoveries->Add();
  counters_.replayed_updates->Add(replayed);
  return Status::Ok();
}

Status GraphCluster::CheckpointAll(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // SaveGraph fails loudly
  Status result = Status::Ok();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->crashed()) continue;
    Status s = shards_[i]->Checkpoint(dir + "/shard_" + std::to_string(i) +
                                      ".ckpt");
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

std::size_t GraphCluster::Degree(VertexId src, EdgeType type) const {
  return shards_[partitioner_.ShardOf(src)]->store().Degree(src, type);
}

std::size_t GraphCluster::NumEdges() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->store().NumEdges();
  return n;
}

double GraphCluster::LoadImbalance() const {
  std::size_t max_edges = 0;
  std::size_t min_edges = static_cast<std::size_t>(-1);
  for (const auto& s : shards_) {
    const std::size_t e = s->store().NumEdges();
    max_edges = std::max(max_edges, e);
    min_edges = std::min(min_edges, e);
  }
  if (min_edges == 0) return static_cast<double>(max_edges);
  return static_cast<double>(max_edges) / static_cast<double>(min_edges);
}

}  // namespace platod2gl
