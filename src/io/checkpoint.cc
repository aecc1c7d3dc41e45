#include "io/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "io/bytes.h"

namespace platod2gl {
namespace {

constexpr char kMagic[4] = {'P', 'D', '2', 'G'};
// v1: no integrity footer. v2: everything up to the last 4 bytes is
// covered by a CRC-32 footer, verified in full BEFORE any record is
// applied to the target store (truncated or bit-rotted checkpoints are
// rejected with kDataLoss instead of building a silently wrong store).
// v1 files are still loaded (no footer to check).
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kEdgeRecordBytes = 8 + 8 + 8;  // src, dst, weight

/// Strip and verify the CRC-32 footer of a v2 image whose smallest
/// structurally valid body is `min_size` bytes.
Status VerifyFooter(std::string_view image, std::size_t min_size,
                    std::string_view* body) {
  if (image.size() < min_size + kCrcFooterBytes) {
    return Status::DataLoss("checkpoint truncated");
  }
  if (!StripCrcFooter(image, body)) {
    return Status::DataLoss(
        "checkpoint checksum mismatch (corrupt or truncated)");
  }
  return Status::Ok();
}

/// Name the file a load failed on; the code is kept.
Status WithPath(const std::string& path, Status s) {
  return s.ok() ? s : Status(s.code(), path + ": " + s.message());
}

Status ParseGraph(std::string_view image, GraphStore* graph) {
  ByteReader r(image);
  char magic[4];
  std::uint32_t version = 0, num_relations = 0;
  if (!r.Get(&magic) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a PlatoD2GL checkpoint");
  }
  if (!r.Get(&version) || version == 0 || version > kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  if (version >= 2) {
    // Integrity first: verify the whole image against its footer BEFORE
    // applying any record, then parse the body past the header.
    std::string_view body;
    Status s = VerifyFooter(image, /*min_size=*/12, &body);
    if (!s.ok()) return s;
    r = ByteReader(body.substr(sizeof(kMagic) + sizeof(version)));
  }
  if (!r.Get(&num_relations)) {
    return Status::InvalidArgument("truncated header");
  }
  if (num_relations > graph->num_relations()) {
    return Status::InvalidArgument(
        "checkpoint has more relations than the target store");
  }
  if (graph->NumEdges() != 0) {
    return Status::InvalidArgument("target store is not empty");
  }

  for (std::uint32_t rel = 0; rel < num_relations; ++rel) {
    std::uint64_t count = 0;
    if (!r.Get(&count)) {
      return Status::InvalidArgument("truncated relation header");
    }
    if (!r.CanHold(count, kEdgeRecordBytes)) {
      return Status::InvalidArgument("truncated edge records");
    }
    TopologyStore& topo = graph->topology(static_cast<EdgeType>(rel));
    // SaveGraph writes edges grouped by source, so whole neighbourhoods
    // arrive as runs and can be bulk-built bottom-up (O(n) per tree)
    // instead of inserted one by one. InstallTree merges gracefully if a
    // (foreign) file interleaves sources.
    VertexId run_src = kInvalidVertex;
    std::vector<std::pair<VertexId, Weight>> run;
    auto flush = [&]() {
      if (run.empty()) return;
      topo.InstallTree(run_src,
                       Samtree::BulkBuild(std::move(run), topo.config()));
      run.clear();
    };
    for (std::uint64_t i = 0; i < count; ++i) {
      VertexId src = 0, dst = 0;
      Weight weight = 0;
      r.Get(&src);
      r.Get(&dst);
      r.Get(&weight);
      if (src != run_src) {
        flush();
        run_src = src;
      }
      run.emplace_back(dst, weight);
    }
    flush();
  }

  std::uint64_t attr_count = 0;
  if (!r.Get(&attr_count)) {
    return Status::InvalidArgument("truncated attribute header");
  }
  for (std::uint64_t i = 0; i < attr_count; ++i) {
    VertexId id;
    std::uint8_t has_label;
    if (!r.Get(&id) || !r.Get(&has_label)) {
      return Status::InvalidArgument("truncated attribute record");
    }
    if (has_label) {
      std::int64_t label_value;
      if (!r.Get(&label_value)) {
        return Status::InvalidArgument("truncated label");
      }
      graph->attributes().SetLabel(id, label_value);
    }
    std::uint32_t len;
    if (!r.Get(&len)) {
      return Status::InvalidArgument("truncated feature length");
    }
    if (len > 0) {
      // v1 files carry no footer, so GetArray's check of the length
      // prefix against the bytes left BEFORE allocating is what stops a
      // lying prefix (fuzz-found hazard).
      std::vector<float> feats;
      if (!r.GetArray(len, &feats)) {
        return Status::InvalidArgument("feature length exceeds file size");
      }
      graph->attributes().SetFeatures(id, std::move(feats));
    }
  }
  return Status::Ok();
}

}  // namespace

Status SaveGraph(const GraphStore& graph, const std::string& path) {
  std::string image;
  if (Status s = SaveGraphToBytes(graph, &image); !s.ok()) return s;
  if (Status s = WriteFile(path, image); !s.ok()) {
    return Status::Internal(s.message());
  }
  return Status::Ok();
}

Status SaveGraphToBytes(const GraphStore& graph, std::string* out) {
  out->clear();
  ByteWriter w(out);
  w.Put(kMagic);
  w.Put(kVersion);
  w.Put(static_cast<std::uint32_t>(graph.num_relations()));

  for (std::size_t r = 0; r < graph.num_relations(); ++r) {
    const TopologyStore& topo = graph.topology(static_cast<EdgeType>(r));
    w.Put(static_cast<std::uint64_t>(topo.NumEdges()));
    std::uint64_t written = 0;
    topo.ForEachSource([&](VertexId src, const Samtree& tree) {
      tree.ForEachNeighbor([&](VertexId dst, Weight weight) {
        w.Put(src);
        w.Put(dst);
        w.Put(weight);
        ++written;
      });
    });
    if (written != topo.NumEdges()) {
      return Status::Internal("edge count drifted during save");
    }
  }

  // Attributes: collect IDs first (ForEach is not re-entrant with reads).
  struct AttrRow {
    VertexId id;
    std::optional<std::int64_t> label;
    std::vector<float> features;
  };
  std::vector<AttrRow> rows;
  graph.attributes().ForEachVertex(
      [&](VertexId v, const std::vector<float>& feats,
          const std::optional<std::int64_t>& label) {
        rows.push_back(AttrRow{v, label, feats});
      });
  w.Put(static_cast<std::uint64_t>(rows.size()));
  for (const AttrRow& row : rows) {
    const std::uint8_t has_label = row.label.has_value() ? 1 : 0;
    w.Put(row.id);
    w.Put(has_label);
    if (has_label) w.Put(*row.label);
    w.Put(static_cast<std::uint32_t>(row.features.size()));
    w.PutArray(row.features);
  }
  AppendCrcFooter(out);
  return Status::Ok();
}

Status LoadGraph(const std::string& path, GraphStore* graph) {
  std::string image;
  if (Status s = ReadFile(path, &image); !s.ok()) return s;
  return WithPath(path, ParseGraph(image, graph));
}

Status LoadGraphFromBytes(const std::string& bytes, GraphStore* graph) {
  if (bytes.empty()) {
    return Status::InvalidArgument("empty checkpoint image");
  }
  return ParseGraph(bytes, graph);
}

bool IsGraphCheckpoint(std::string_view bytes) {
  return bytes.substr(0, sizeof(kMagic)) ==
         std::string_view(kMagic, sizeof(kMagic));
}

namespace {

constexpr char kModelMagic[4] = {'P', 'D', '2', 'M'};
// v1 model files put the u32 in_dim straight after the magic; v2 inserts
// this sentinel (an impossible in_dim) so the two can be told apart, then
// appends a CRC-32 footer like graph checkpoints.
constexpr std::uint32_t kModelV2Tag = 0xFFFFFFFEu;

void PutTensor(ByteWriter& w, const Tensor& t) {
  w.Put(static_cast<std::uint32_t>(t.rows()));
  w.Put(static_cast<std::uint32_t>(t.cols()));
  w.PutBytes(t.data(), sizeof(float) * t.size());
}

bool GetTensorInto(ByteReader& r, Tensor* t) {
  std::uint32_t rows = 0, cols = 0;
  if (!r.Get(&rows) || !r.Get(&cols)) return false;
  if (rows != t->rows() || cols != t->cols()) return false;
  return r.GetBytes(t->data(), sizeof(float) * t->size());
}

void PutDense(ByteWriter& w, const Dense& d) {
  PutTensor(w, d.weights());
  w.Put(static_cast<std::uint32_t>(d.bias().size()));
  w.PutBytes(d.bias().data(), sizeof(float) * d.bias().size());
}

bool GetDenseInto(ByteReader& r, Dense* d) {
  if (!GetTensorInto(r, &d->weights())) return false;
  std::uint32_t blen = 0;
  if (!r.Get(&blen) || blen != d->bias().size()) return false;
  return r.GetBytes(d->bias().data(), sizeof(float) * blen);
}

Status ParseModel(std::string_view image, GraphSageModel* model) {
  ByteReader r(image);
  char magic[4];
  std::uint32_t probe = 0;
  if (!r.Get(&magic) ||
      std::memcmp(magic, kModelMagic, sizeof(kModelMagic)) != 0) {
    return Status::InvalidArgument("not a PlatoD2GL model");
  }
  if (!r.Get(&probe)) {
    return Status::InvalidArgument("truncated model header");
  }

  std::uint32_t dims[3];
  if (probe == kModelV2Tag) {
    std::string_view body;
    Status s = VerifyFooter(image, /*min_size=*/20, &body);
    if (!s.ok()) return s;
    r = ByteReader(body.substr(sizeof(kModelMagic) + sizeof(kModelV2Tag)));
    if (!r.Get(&dims)) {
      return Status::InvalidArgument("truncated model header");
    }
  } else {
    // v1 layout: the probe WAS in_dim.
    dims[0] = probe;
    if (!r.Get(&dims[1]) || !r.Get(&dims[2])) {
      return Status::InvalidArgument("truncated model header");
    }
  }
  const GraphSageConfig& cfg = model->config();
  if (dims[0] != cfg.in_dim || dims[1] != cfg.hidden_dim ||
      dims[2] != cfg.num_classes) {
    return Status::InvalidArgument(
        "model architecture mismatch (checkpoint vs target)");
  }
  const bool ok = GetDenseInto(r, &model->sage1().self_fc()) &&
                  GetDenseInto(r, &model->sage1().neigh_fc()) &&
                  GetDenseInto(r, &model->sage2().self_fc()) &&
                  GetDenseInto(r, &model->sage2().neigh_fc()) &&
                  GetDenseInto(r, &model->classifier());
  return ok ? Status::Ok()
            : Status::InvalidArgument("truncated or mismatched model data");
}

}  // namespace

Status SaveModel(const GraphSageModel& model, const std::string& path) {
  std::string image;
  ByteWriter w(&image);
  const GraphSageConfig& cfg = model.config();
  w.Put(kModelMagic);
  w.Put(kModelV2Tag);
  w.Put(static_cast<std::uint32_t>(cfg.in_dim));
  w.Put(static_cast<std::uint32_t>(cfg.hidden_dim));
  w.Put(static_cast<std::uint32_t>(cfg.num_classes));
  PutDense(w, model.sage1().self_fc());
  PutDense(w, model.sage1().neigh_fc());
  PutDense(w, model.sage2().self_fc());
  PutDense(w, model.sage2().neigh_fc());
  PutDense(w, model.classifier());
  AppendCrcFooter(&image);
  if (Status s = WriteFile(path, image); !s.ok()) {
    return Status::Internal(s.message());
  }
  return Status::Ok();
}

Status LoadModel(const std::string& path, GraphSageModel* model) {
  std::string image;
  if (Status s = ReadFile(path, &image); !s.ok()) return s;
  return WithPath(path, ParseModel(image, model));
}

}  // namespace platod2gl
