// pd2gl_perfbench: one workload of the wall-clock benchmark per call.
//
//   pd2gl_perfbench --workload <train-stream|ingest-burst|serve-zipf>
//                   --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object with the end-to-end metrics (and, with --trace 1, the per-layer
// metrics), the correctness checks, the open-loop validity report and the
// environment stamp. With --trace 1 and --out, the spans go to
// <dir>/spans-<workload>-<seed>.jsonl and the per-layer self-time table to
// <dir>/layers-<workload>-<seed>.txt. perfbench/run.py drives this binary.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "common/simd.h"
#include "gen/datasets.h"

namespace perfbench {
namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

template <typename V, typename F>
std::string Object(const std::vector<std::pair<std::string, V>>& kv, F&& fmt) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(kv[i].first) + ": " + fmt(kv[i].second);
  }
  return out + "}";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

/// Spans of every log as JSON lines, times relative to the earliest span.
void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::int64_t origin = INT64_MAX;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path);
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      out << "{\"thread\": " << Quote(log.thread())
          << ", \"name\": " << Quote(s.name)
          << ", \"start_ns\": " << (s.start_ns - origin)
          << ", \"end_ns\": " << (s.end_ns - origin)
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
    }
  }
}

/// Per-layer self time (total, share of all traced time, per op), then
/// every per-layer metric by name.
std::string LayerTable(const Options& opt, const Result& r,
                       const std::vector<std::pair<std::string, double>>&
                           self) {
  std::ostringstream t;
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  t << "per-layer self time, " << opt.workload << " seed " << opt.seed
    << " (" << r.attempted << " ops)\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %12s %8s %14s\n", "layer", "self_s",
                "share", "self_us_per_op");
  t << line;
  for (const auto& [layer, s] : self) {
    std::snprintf(line, sizeof line, "%-10s %12.6f %7.1f%% %14.3f\n",
                  layer.c_str(), s, total > 0 ? 100.0 * s / total : 0.0,
                  r.attempted > 0 ? s * 1e6 / static_cast<double>(r.attempted)
                                  : 0.0);
    t << line;
  }
  t << "\nper-layer metrics\n";
  for (const auto& [name, value] : r.layers) {
    std::snprintf(line, sizeof line, "%-34s %16.6g\n", name.c_str(), value);
    t << line;
  }
  return t.str();
}

int Main(int argc, char** argv) {
  Options opt;
  std::string out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out") {
      out_dir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (!(opt.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  Result r;
  if (opt.workload == "train-stream") {
    r = RunTrainStream(opt);
  } else if (opt.workload == "ingest-burst") {
    r = RunIngestBurst(opt);
  } else if (opt.workload == "serve-zipf") {
    r = RunServeZipf(opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  const std::vector<std::pair<std::string, double>> self =
      SelfSecondsByLayer(r.span_logs);
  if (opt.trace) {
    for (const auto& [layer, s] : self) {
      r.layers.emplace_back(layer + ".self_s", s);
    }
    const std::string table = LayerTable(opt, r, self);
    std::fputs(table.c_str(), stderr);
    if (!out_dir.empty()) {
      const std::string stem = opt.workload + "-" + std::to_string(opt.seed);
      WriteSpans(out_dir + "/spans-" + stem + ".jsonl", r.span_logs);
      std::ofstream(out_dir + "/layers-" + stem + ".txt") << table;
    }
  }
  for (const std::string& d : r.check_details) {
    std::fprintf(stderr, "CHECK FAILED %s\n", d.c_str());
  }

  bool open_loop_valid = true;
  std::string pacing = "[";
  for (std::size_t i = 0; i < r.pacing.size(); ++i) {
    const PacingReport& p = r.pacing[i];
    open_loop_valid = open_loop_valid && !p.behind() && !p.backlog_grew();
    if (p.behind() || p.backlog_grew()) {
      std::fprintf(stderr,
                   "OPEN-LOOP FLAG %s/%s: lateness p99 %.3f ms (limit %.1f), "
                   "backlog %.0f (limit %.0f)\n",
                   p.generator.c_str(), p.phase.c_str(), p.lateness_p99_ms,
                   p.lateness_limit_ms, p.backlog_end, p.backlog_limit);
    }
    pacing += std::string(i > 0 ? ", " : "") + "{\"generator\": " +
              Quote(p.generator) + ", \"phase\": " + Quote(p.phase) +
              ", \"lateness_p99_ms\": " + Num(p.lateness_p99_ms) +
              ", \"lateness_max_ms\": " + Num(p.lateness_max_ms) +
              ", \"backlog_end\": " + Num(p.backlog_end) +
              ", \"backlog_limit\": " + Num(p.backlog_limit) +
              ", \"behind\": " + (p.behind() ? "true" : "false") +
              ", \"backlog_grew\": " + (p.backlog_grew() ? "true" : "false") +
              "}";
  }
  pacing += "]";

  const std::vector<std::pair<std::string, std::string>> env = {
      {"seed", std::to_string(opt.seed)},
      {"avx2_supported", platod2gl::simd::Avx2Supported() ? "true" : "false"},
      {"avx2_enabled", platod2gl::simd::Avx2Enabled() ? "true" : "false"},
      {"PD2GL_FORCE_SCALAR", Quote(EnvOr("PD2GL_FORCE_SCALAR", ""))},
      {"PLATOD2GL_SCALE", Quote(EnvOr("PLATOD2GL_SCALE", ""))},
      {"dataset_scale", Num(platod2gl::DatasetScale())},
      {"threads", Object(r.threads, [](int n) { return std::to_string(n); })},
  };
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"e2e\": %s, \"layers\": %s, \"counts\": %s, \"checks\": %s, "
      "\"open_loop_valid\": %s, \"pacing\": %s, \"env\": %s}\n",
      Quote(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      Num(opt.seconds).c_str(), opt.trace ? 1 : 0,
      r.correct() ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      Object(r.e2e, Num).c_str(), Object(r.layers, Num).c_str(),
      Object(r.counts, Num).c_str(),
      Object(r.checks,
             [](bool ok) { return std::string(ok ? "true" : "false"); })
          .c_str(),
      open_loop_valid ? "true" : "false", pacing.c_str(),
      Object(env, [](const std::string& s) { return s; }).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pd2gl_perfbench: %s\n", e.what());
    return 1;
  }
}
