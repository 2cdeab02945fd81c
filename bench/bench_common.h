// Shared helpers for the figure/table benches: scale control, aligned
// table printing, and the stage-1 + gold plumbing every workload repeats.
//
// EXPLAIN3D_SCALE=<float> multiplies the default workload sizes (1.0
// keeps every bench laptop-fast; docs/BENCHMARKS.md records the scale of
// every JSON line).

#ifndef EXPLAIN3D_BENCH_BENCH_COMMON_H_
#define EXPLAIN3D_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "eval/experiment.h"

namespace explain3d {
namespace bench {

inline double Scale() {
  const char* s = std::getenv("EXPLAIN3D_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

inline size_t Scaled(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * Scale());
}

inline std::string Fmt(double v, const char* fmt = "%.3f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Escapes a string for inclusion in a JSON string literal.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// Appends one JSON line to BENCH_<bench>.json (or the file named by the
/// EXPLAIN3D_BENCH_JSON environment variable). One line per figure keeps
/// the perf trajectory machine-readable across PRs: each run appends, and
/// diffs show the numbers moving.
inline void AppendBenchJson(const std::string& bench,
                            const std::string& json_line) {
  const char* override_path = std::getenv("EXPLAIN3D_BENCH_JSON");
  std::string path =
      override_path != nullptr ? override_path : "BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return;  // benches never fail on unwritable cwd
  std::fprintf(f, "%s\n", json_line.c_str());
  std::fclose(f);
}

/// Per-stage timing of one pipeline run as a JSON line (Section 5.2
/// reports per-stage times; stage 1 dominates end-to-end >98%).
///   {"figure":"6c-stages","scale":1.0,"stage1_seconds":...,
///    "stage2_seconds":...,"total_seconds":...}
inline std::string StageTimesJson(const std::string& figure,
                                  const PipelineResult& pipe) {
  std::string out = "{\"figure\":\"" + JsonEscape(figure) + "\"";
  out += ",\"scale\":" + Fmt(Scale(), "%.3g");
  out += ",\"stage1_seconds\":" + Fmt(pipe.stage1_seconds(), "%.6f");
  out += ",\"stage2_seconds\":" + Fmt(pipe.stage2_seconds(), "%.6f");
  out += ",\"total_seconds\":" + Fmt(pipe.total_seconds(), "%.6f");
  out += "}";
  return out;
}

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) widths_.push_back(h.size());
  }

  void AddRow(std::vector<std::string> cells) {
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    PrintRow(headers_);
    std::string sep;
    for (size_t w : widths_) sep += std::string(w + 2, '-');
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row);
  }

  /// The whole table as one JSON line:
  ///   {"figure":"8a","scale":1.0,"headers":[...],"rows":[[...],...]}
  std::string ToJson(const std::string& figure) const {
    std::string out = "{\"figure\":\"" + JsonEscape(figure) + "\"";
    out += ",\"scale\":" + Fmt(Scale(), "%.3g");
    out += ",\"headers\":[";
    for (size_t i = 0; i < headers_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + JsonEscape(headers_[i]) + "\"";
    }
    out += "],\"rows\":[";
    for (size_t r = 0; r < rows_.size(); ++r) {
      if (r > 0) out += ",";
      out += "[";
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        if (i > 0) out += ",";
        out += "\"" + JsonEscape(rows_[r][i]) + "\"";
      }
      out += "]";
    }
    out += "]}";
    return out;
  }

 private:
  void PrintRow(const std::vector<std::string>& row) const {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s", static_cast<int>(widths_[i] + 2), row[i].c_str());
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

/// Runs stage 1 + 2 and bails out loudly on failure (benches should never
/// silently skip an experiment).
inline PipelineResult MustRun(const PipelineInput& input,
                              const Explain3DConfig& config) {
  Result<PipelineResult> r = RunExplain3D(input, config);
  if (!r.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

}  // namespace bench
}  // namespace explain3d

#endif  // EXPLAIN3D_BENCH_BENCH_COMMON_H_
