#include "dist/wire.h"

#include <utility>

#include "temporal/edge_log.h"

namespace platod2gl::wire {
namespace {

/// Consume the tag byte of an unversioned client RPC.
bool GetTag(ByteReader& r, char tag) {
  char got = 0;
  return r.Get(&got) && got == tag;
}

/// Consume the tag and version bytes of a versioned message, accepting
/// versions in [min_version, max_version]. kUnsupportedVersion is only
/// reported once the tag matched — an unknown tag is plain malformed input.
DecodeResult GetHeader(ByteReader& r, char tag, std::uint8_t min_version,
                       std::uint8_t max_version, std::uint8_t* version) {
  if (!GetTag(r, tag) || !r.Get(version)) return DecodeResult::kMalformed;
  if (*version < min_version || *version > max_version) {
    return DecodeResult::kUnsupportedVersion;
  }
  return DecodeResult::kOk;
}

DecodeResult GetRepHeader(ByteReader& r, char tag) {
  std::uint8_t version = 0;
  return GetHeader(r, tag, kReplicationWireVersion, kReplicationWireVersion,
                   &version);
}

/// Every decoder requires full consumption: trailing bytes are damage.
DecodeResult Finish(const ByteReader& r) {
  return r.done() ? DecodeResult::kOk : DecodeResult::kMalformed;
}

// A RepLogAppend entry: seq u64 + update record.
constexpr std::size_t kRepEntryBytes = 8 + kUpdateRecordBytes;

}  // namespace

std::string EncodeSampleRequest(const SampleRequest& req) {
  std::string out;
  out.reserve(SampleRequestBytes(req.seeds.size()));
  ByteWriter w(&out);
  w.Put('S');
  w.Put(req.edge_type);
  w.Put(req.fanout);
  w.Put(static_cast<std::uint8_t>(req.weighted ? 1 : 0));
  w.Put(static_cast<std::uint32_t>(req.seeds.size()));
  w.PutArray(req.seeds);
  return out;
}

DecodeResult DecodeSampleRequest(const std::string& bytes,
                                 SampleRequest* req) {
  ByteReader r(bytes);
  std::uint8_t weighted;
  std::uint32_t count;
  if (!GetTag(r, 'S') || !r.Get(&req->edge_type) || !r.Get(&req->fanout) ||
      !r.Get(&weighted) || !r.Get(&count)) {
    return DecodeResult::kMalformed;
  }
  // Bounds-check the declared count against the actual tail BEFORE
  // allocating: a malformed count of ~4 billion must be rejected, not
  // turned into a 32 GB resize. The seed array is the whole remaining
  // payload, so the check is exact and also rejects trailing garbage.
  if (!r.HoldsExactly(count, sizeof(VertexId)) ||
      !r.GetArray(count, &req->seeds)) {
    return DecodeResult::kMalformed;
  }
  req->weighted = weighted != 0;
  return Finish(r);
}

std::string EncodeSampleResponse(const NeighborBatch& batch) {
  std::string out;
  ByteWriter w(&out);
  w.Put('R');
  w.Put(static_cast<std::uint32_t>(batch.NumSeeds()));
  for (std::size_t i = 0; i + 1 < batch.offsets.size(); ++i) {
    const std::uint32_t len =
        static_cast<std::uint32_t>(batch.offsets[i + 1] - batch.offsets[i]);
    w.Put(len);
    w.PutBytes(batch.neighbors.data() + batch.offsets[i],
               sizeof(VertexId) * len);
  }
  return out;
}

DecodeResult DecodeSampleResponse(const std::string& bytes,
                                  NeighborBatch* batch) {
  ByteReader r(bytes);
  std::uint32_t seeds;
  if (!GetTag(r, 'R') || !r.Get(&seeds)) return DecodeResult::kMalformed;
  // Each seed contributes at least a 4-byte length prefix: reject absurd
  // seed counts before reserving anything.
  if (!r.CanHold(seeds, sizeof(std::uint32_t))) {
    return DecodeResult::kMalformed;
  }
  batch->neighbors.clear();
  batch->offsets.assign(1, 0);
  batch->offsets.reserve(static_cast<std::size_t>(seeds) + 1);
  for (std::uint32_t i = 0; i < seeds; ++i) {
    std::uint32_t len;
    // Bounds-check the whole range before reading it: a bit-flipped
    // length prefix must never cause an over-read or an absurd reserve.
    if (!r.Get(&len) || !r.CanHold(len, sizeof(VertexId))) {
      return DecodeResult::kMalformed;
    }
    const std::size_t at = batch->neighbors.size();
    batch->neighbors.resize(at + len);
    r.GetBytes(batch->neighbors.data() + at, sizeof(VertexId) * len);
    batch->offsets.push_back(batch->neighbors.size());
  }
  return Finish(r);
}

std::string EncodeUpdateBatch(const std::vector<EdgeUpdate>& batch) {
  std::string out;
  out.reserve(UpdateBatchBytes(batch.size()));
  ByteWriter w(&out);
  w.Put('U');
  w.Put(static_cast<std::uint32_t>(batch.size()));
  for (const EdgeUpdate& u : batch) PutUpdateRecord(w, u);
  return out;
}

DecodeResult DecodeUpdateBatch(const std::string& bytes,
                               std::vector<EdgeUpdate>* batch) {
  ByteReader r(bytes);
  std::uint32_t count;
  if (!GetTag(r, 'U') || !r.Get(&count)) return DecodeResult::kMalformed;
  // Updates are fixed-size records and the whole remaining payload:
  // exact arithmetic check before the reserve, so truncation, trailing
  // garbage and absurd counts are all rejected without allocating.
  if (!r.HoldsExactly(count, kUpdateRecordBytes)) {
    return DecodeResult::kMalformed;
  }
  batch->clear();
  batch->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EdgeUpdate u;
    if (!GetUpdateRecord(r, &u)) return DecodeResult::kMalformed;
    batch->push_back(u);
  }
  return Finish(r);
}

std::string EncodeRepLogAppend(const RepLogAppend& msg, std::uint8_t version) {
  std::string out;
  out.reserve(10 + msg.entries.size() * kRepEntryBytes);
  ByteWriter w(&out);
  w.Put('L');
  w.Put(version);
  w.Put(msg.shard);
  w.Put(static_cast<std::uint32_t>(msg.entries.size()));
  for (const RepLogEntry& e : msg.entries) {
    w.Put(e.seq);
    PutUpdateRecord(w, e.update);
  }
  return out;
}

std::string EncodeRepLogAppendWindow(std::uint32_t shard,
                                     std::uint64_t first_seq,
                                     const TimedUpdate* window,
                                     std::size_t count,
                                     std::uint8_t version) {
  std::string out;
  out.reserve(10 + count * kRepEntryBytes);
  ByteWriter w(&out);
  w.Put('L');
  w.Put(version);
  w.Put(shard);
  w.Put(static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    w.Put(first_seq + i);
    PutUpdateRecord(w, window[i].update);
  }
  return out;
}

DecodeResult DecodeRepLogAppend(const std::string& bytes, RepLogAppend* out) {
  ByteReader r(bytes);
  const DecodeResult head = GetRepHeader(r, 'L');
  if (head != DecodeResult::kOk) return head;
  std::uint32_t count;
  if (!r.Get(&out->shard) || !r.Get(&count)) return DecodeResult::kMalformed;
  // Entries are fixed 37-byte records and the whole remaining payload:
  // exact arithmetic check before the reserve (same hardening discipline
  // as DecodeUpdateBatch — absurd counts must not drive an allocation).
  if (!r.HoldsExactly(count, kRepEntryBytes)) return DecodeResult::kMalformed;
  out->entries.clear();
  out->entries.reserve(count);
  std::uint64_t prev_seq = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    RepLogEntry e;
    if (!r.Get(&e.seq) || !GetUpdateRecord(r, &e.update)) {
      return DecodeResult::kMalformed;
    }
    // Sequence numbers must be strictly increasing within a message — a
    // run that is not contiguous-sorted can never be a valid WAL window.
    if (i > 0 && e.seq != prev_seq + 1) return DecodeResult::kMalformed;
    prev_seq = e.seq;
    out->entries.push_back(e);
  }
  return Finish(r);
}

std::string EncodeRepAck(const RepAck& msg, std::uint8_t version) {
  std::string out;
  out.reserve(18);
  ByteWriter w(&out);
  w.Put('A');
  w.Put(version);
  w.Put(msg.shard);
  w.Put(msg.replica);
  w.Put(msg.applied_seq);
  return out;
}

DecodeResult DecodeRepAck(const std::string& bytes, RepAck* out) {
  ByteReader r(bytes);
  const DecodeResult head = GetRepHeader(r, 'A');
  if (head != DecodeResult::kOk) return head;
  if (!r.Get(&out->shard) || !r.Get(&out->replica) ||
      !r.Get(&out->applied_seq)) {
    return DecodeResult::kMalformed;
  }
  return Finish(r);
}

std::string EncodeRepDigest(const RepDigest& msg, std::uint8_t version) {
  std::string out;
  out.reserve(18 + msg.bucket_edges.size() * 12);
  ByteWriter w(&out);
  w.Put('G');
  w.Put(version);
  w.Put(msg.shard);
  w.Put(msg.through_seq);
  w.Put(static_cast<std::uint32_t>(msg.bucket_edges.size()));
  for (std::size_t i = 0; i < msg.bucket_edges.size(); ++i) {
    w.Put(msg.bucket_edges[i]);
    w.Put(msg.bucket_crcs[i]);
  }
  return out;
}

DecodeResult DecodeRepDigest(const std::string& bytes, RepDigest* out) {
  ByteReader r(bytes);
  const DecodeResult head = GetRepHeader(r, 'G');
  if (head != DecodeResult::kOk) return head;
  std::uint32_t count;
  if (!r.Get(&out->shard) || !r.Get(&out->through_seq) || !r.Get(&count)) {
    return DecodeResult::kMalformed;
  }
  // Buckets are fixed 12-byte records and the whole remaining payload.
  if (!r.HoldsExactly(count, 12)) return DecodeResult::kMalformed;
  out->bucket_edges.assign(count, 0);
  out->bucket_crcs.assign(count, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    r.Get(&out->bucket_edges[i]);
    r.Get(&out->bucket_crcs[i]);
  }
  return Finish(r);
}

std::string EncodeRepSnapshot(const RepSnapshot& msg, std::uint8_t version) {
  std::string out;
  out.reserve(18 + msg.checkpoint.size());
  ByteWriter w(&out);
  w.Put('B');
  w.Put(version);
  w.Put(msg.shard);
  w.Put(msg.covered_seq);
  w.Put(static_cast<std::uint32_t>(msg.checkpoint.size()));
  w.PutBytes(msg.checkpoint.data(), msg.checkpoint.size());
  return out;
}

DecodeResult DecodeRepSnapshot(const std::string& bytes, RepSnapshot* out) {
  ByteReader r(bytes);
  const DecodeResult head = GetRepHeader(r, 'B');
  if (head != DecodeResult::kOk) return head;
  std::uint32_t len;
  if (!r.Get(&out->shard) || !r.Get(&out->covered_seq) || !r.Get(&len)) {
    return DecodeResult::kMalformed;
  }
  // The checkpoint image is the whole remaining payload: exact check
  // before the copy. Its *contents* are verified separately by the
  // io/checkpoint CRC-32 footer on load.
  if (!r.HoldsExactly(len, 1)) return DecodeResult::kMalformed;
  out->checkpoint.resize(len);
  r.GetBytes(out->checkpoint.data(), len);
  return Finish(r);
}

std::string EncodeQueryRequest(const serve::QueryRequest& req,
                               std::uint8_t version) {
  std::string out;
  out.reserve(43 + req.seeds.size() * sizeof(VertexId) +
              req.plan.ops.size() * 34);
  ByteWriter w(&out);
  w.Put('Q');
  w.Put(version);
  w.Put(req.tenant);
  w.Put(req.request_id);
  w.Put(req.rng_seed);
  if (version != 1) {
    // v2+: the propagated trace context rides between the RNG seed and
    // the seed array. Encoding at version 1 emits the exact legacy
    // layout, byte for byte.
    w.Put(req.trace.trace_id);
    w.Put(req.trace.parent_span);
    w.Put(req.trace.flags);
  }
  w.Put(static_cast<std::uint32_t>(req.seeds.size()));
  w.PutArray(req.seeds);
  w.Put(static_cast<std::uint32_t>(req.plan.ops.size()));
  for (const serve::PlanOp& op : req.plan.ops) {
    w.Put(static_cast<std::uint8_t>(op.kind));
    w.Put(op.input);
    w.Put(op.edge_type);
    w.Put(op.fanout);
    w.Put(static_cast<std::uint8_t>(op.weighted ? 1 : 0));
    w.Put(op.count);
    w.Put(op.range_lo);
    w.Put(op.range_hi);
  }
  return out;
}

DecodeResult DecodeQueryRequest(const std::string& bytes,
                                serve::QueryRequest* out) {
  // Serving clients span a version RANGE (v1 predates the trace context):
  // the accepted version tells the body decoder which fields to expect.
  ByteReader r(bytes);
  std::uint8_t version = 0;
  const DecodeResult head = GetHeader(r, 'Q', kMinServeWireVersion,
                                      kServeWireVersion, &version);
  if (head != DecodeResult::kOk) return head;
  if (!r.Get(&out->tenant) || !r.Get(&out->request_id) ||
      !r.Get(&out->rng_seed)) {
    return DecodeResult::kMalformed;
  }
  out->trace = obs::TraceContext{};
  if (version != 1) {
    if (!r.Get(&out->trace.trace_id) || !r.Get(&out->trace.parent_span) ||
        !r.Get(&out->trace.flags)) {
      return DecodeResult::kMalformed;
    }
  }
  // The seed array cannot exceed the remaining payload: GetArray
  // bounds-checks the declared count BEFORE allocating (absurd counts
  // must not drive a resize).
  std::uint32_t seed_count;
  if (!r.Get(&seed_count) || !r.GetArray(seed_count, &out->seeds)) {
    return DecodeResult::kMalformed;
  }
  std::uint32_t op_count;
  if (!r.Get(&op_count)) return DecodeResult::kMalformed;
  // Ops are fixed 34-byte records and the whole remaining payload: exact
  // arithmetic check before the reserve — this also rejects trailing
  // garbage.
  if (!r.HoldsExactly(op_count, 34)) return DecodeResult::kMalformed;
  out->plan.ops.clear();
  out->plan.ops.reserve(op_count);
  for (std::uint32_t i = 0; i < op_count; ++i) {
    serve::PlanOp op;
    std::uint8_t kind;
    std::uint8_t weighted;
    if (!r.Get(&kind) || !r.Get(&op.input) || !r.Get(&op.edge_type) ||
        !r.Get(&op.fanout) || !r.Get(&weighted) || !r.Get(&op.count) ||
        !r.Get(&op.range_lo) || !r.Get(&op.range_hi)) {
      return DecodeResult::kMalformed;
    }
    if (kind > static_cast<std::uint8_t>(serve::OpKind::kGather) ||
        weighted > 1) {
      return DecodeResult::kMalformed;
    }
    op.kind = static_cast<serve::OpKind>(kind);
    op.weighted = weighted != 0;
    out->plan.ops.push_back(op);
  }
  return Finish(r);
}

std::string EncodeQueryResponse(const serve::QueryResponse& resp,
                                std::uint8_t version) {
  std::string out;
  ByteWriter w(&out);
  w.Put('P');
  w.Put(version);
  w.Put(resp.tenant);
  w.Put(resp.request_id);
  w.Put(static_cast<std::uint8_t>(resp.status));
  w.Put(resp.epoch);
  if (version != 1) w.Put(resp.trace_id);
  w.Put(static_cast<std::uint32_t>(resp.stages.size()));
  for (const serve::StageOutput& stage : resp.stages) {
    w.Put(static_cast<std::uint32_t>(stage.ids.size()));
    w.PutArray(stage.ids);
    w.Put(static_cast<std::uint32_t>(stage.offsets.size()));
    w.PutArray(stage.offsets);
    w.Put(stage.feature_dim);
    w.Put(static_cast<std::uint32_t>(stage.features.size()));
    w.PutArray(stage.features);
  }
  return out;
}

DecodeResult DecodeQueryResponse(const std::string& bytes,
                                 serve::QueryResponse* out) {
  ByteReader r(bytes);
  std::uint8_t version = 0;
  const DecodeResult head = GetHeader(r, 'P', kMinServeWireVersion,
                                      kServeWireVersion, &version);
  if (head != DecodeResult::kOk) return head;
  std::uint8_t status;
  std::uint32_t stage_count;
  if (!r.Get(&out->tenant) || !r.Get(&out->request_id) || !r.Get(&status) ||
      !r.Get(&out->epoch)) {
    return DecodeResult::kMalformed;
  }
  out->trace_id = 0;
  if (version != 1 && !r.Get(&out->trace_id)) return DecodeResult::kMalformed;
  if (!r.Get(&stage_count)) return DecodeResult::kMalformed;
  if (status > static_cast<std::uint8_t>(serve::RequestStatus::kShed)) {
    return DecodeResult::kMalformed;
  }
  out->status = static_cast<serve::RequestStatus>(status);
  out->latency_us = 0;  // server-side metadata, not carried on the wire
  // Each stage contributes at least its four length/dim prefixes: reject
  // absurd stage counts before reserving anything.
  if (!r.CanHold(stage_count, 16)) return DecodeResult::kMalformed;
  out->stages.clear();
  out->stages.reserve(stage_count);
  for (std::uint32_t i = 0; i < stage_count; ++i) {
    serve::StageOutput stage;
    std::uint32_t ids_len, off_len;
    if (!r.Get(&ids_len) || !r.GetArray(ids_len, &stage.ids) ||
        !r.Get(&off_len) || !r.GetArray(off_len, &stage.offsets)) {
      return DecodeResult::kMalformed;
    }
    // Structural invariants of the NeighborBatch layout: offsets (when
    // present) start at 0, never decrease, and cover exactly the id
    // array; a stage with no offsets carries no ids (gather sink).
    if (off_len == 0) {
      if (ids_len != 0) return DecodeResult::kMalformed;
    } else {
      if (stage.offsets.front() != 0 || stage.offsets.back() != ids_len) {
        return DecodeResult::kMalformed;
      }
      for (std::uint32_t j = 1; j < off_len; ++j) {
        if (stage.offsets[j] < stage.offsets[j - 1]) {
          return DecodeResult::kMalformed;
        }
      }
    }
    std::uint32_t feat_len;
    if (!r.Get(&stage.feature_dim) || !r.Get(&feat_len) ||
        !r.GetArray(feat_len, &stage.features)) {
      return DecodeResult::kMalformed;
    }
    // Feature rows are dense [n x dim]: a row count that doesn't divide
    // evenly (or features without a dim) is structural damage.
    if (stage.feature_dim == 0) {
      if (feat_len != 0) return DecodeResult::kMalformed;
    } else if (feat_len % stage.feature_dim != 0) {
      return DecodeResult::kMalformed;
    }
    out->stages.push_back(std::move(stage));
  }
  return Finish(r);
}

std::string EncodeTraceContext(const obs::TraceContext& ctx,
                               std::uint8_t version) {
  std::string out;
  out.reserve(15);
  ByteWriter w(&out);
  w.Put('T');
  w.Put(version);
  w.Put(ctx.trace_id);
  w.Put(ctx.parent_span);
  w.Put(ctx.flags);
  return out;
}

DecodeResult DecodeTraceContext(const std::string& bytes,
                                obs::TraceContext* out) {
  ByteReader r(bytes);
  std::uint8_t version = 0;
  const DecodeResult head =
      GetHeader(r, 'T', kTraceWireVersion, kTraceWireVersion, &version);
  if (head != DecodeResult::kOk) return head;
  if (!r.Get(&out->trace_id) || !r.Get(&out->parent_span) ||
      !r.Get(&out->flags)) {
    return DecodeResult::kMalformed;
  }
  return Finish(r);
}

}  // namespace platod2gl::wire
