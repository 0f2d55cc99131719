// Shared helpers for the benchmark harness. Every bench binary regenerates
// one experiment from DESIGN.md (paper artifact -> our table), printing
// deterministic metric tables first and running google-benchmark timings
// after.
#ifndef RUIDX_BENCH_BENCH_COMMON_H_
#define RUIDX_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ruid2.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "xml/generator.h"
#include "xml/stats.h"

namespace ruidx {
namespace bench {

/// Machine-readable companion to the printed tables: collects named scalar
/// metrics and writes them as BENCH_<name>.json, so the perf trajectory of
/// each bench can be tracked across PRs by diffing checked-in files.
///
/// Format:
///   {"bench": "<name>", "metrics": [
///     {"name": "...", "value": <number>, "unit": "..."}, ...]}
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Metric(const std::string& name, double value,
              const std::string& unit = "") {
    metrics_.push_back({name, value, unit});
  }

  /// Writes BENCH_<name>.json under `dir` (default: working directory).
  /// Returns the path written, or an empty string on I/O failure.
  std::string Write(const std::string& dir = ".") const {
    std::ostringstream os;
    os << "{\n  \"bench\": \"" << bench_name_ << "\",\n  \"metrics\": [";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) os << ",";
      os << "\n    {\"name\": \"" << metrics_[i].name << "\", \"value\": ";
      // Integral values print without a fraction so diffs stay clean.
      double v = metrics_[i].value;
      if (v == static_cast<double>(static_cast<long long>(v))) {
        os << static_cast<long long>(v);
      } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        os << buf;
      }
      os << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    os << "\n  ]\n}\n";
    std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    std::string body = os.str();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics_.size());
    return path;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string bench_name_;
  std::vector<Entry> metrics_;
};

inline std::unique_ptr<xml::Document> MakeTopology(const std::string& name,
                                                   uint64_t scale) {
  if (name == "uniform") return xml::GenerateUniformTree(scale, 4);
  if (name == "random") {
    xml::RandomTreeConfig config;
    config.node_budget = scale;
    config.max_fanout = 8;
    config.seed = 20020101;  // EDBT 2002
    return xml::GenerateRandomTree(config);
  }
  if (name == "skewed") {
    xml::SkewedTreeConfig config;
    config.node_budget = scale;
    config.max_fanout = 256;
    config.seed = 20020101;
    return xml::GenerateSkewedTree(config);
  }
  if (name == "deep") {
    xml::DeepTreeConfig config;
    config.depth = std::max<uint64_t>(4, scale / 40);
    config.siblings_per_level = 3;
    return xml::GenerateDeepTree(config);
  }
  if (name == "dblp") return xml::GenerateDblpLike(scale / 7);
  if (name == "xmark") {
    xml::XmarkConfig config;
    config.items = scale / 30;
    config.people = scale / 40;
    config.open_auctions = scale / 50;
    config.closed_auctions = scale / 80;
    config.categories = scale / 200 + 2;
    return xml::GenerateXmarkLike(config);
  }
  return xml::GenerateUniformTree(scale, 4);
}

inline core::PartitionOptions DefaultAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 64;
  options.max_area_depth = 4;
  return options;
}

/// Reports a failed store operation and exits non-zero. Every bench writes
/// its BENCH_*.json last, so a failed run leaves no JSON behind.
[[noreturn]] inline void FailBench(const std::string& what,
                                   const Status& status) {
  std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// Prints the experiment banner with the paper artifact it regenerates.
inline void Banner(const std::string& experiment, const std::string& artifact) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n# regenerates: %s\n", experiment.c_str(), artifact.c_str());
  std::printf("################################################################\n");
}

}  // namespace bench
}  // namespace ruidx

/// Standard main: print the experiment tables, then run timed benchmarks.
#define RUIDX_BENCH_MAIN(print_tables_fn)                 \
  int main(int argc, char** argv) {                       \
    print_tables_fn();                                    \
    ::benchmark::Initialize(&argc, argv);                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                \
    ::benchmark::Shutdown();                              \
    return 0;                                             \
  }

#endif  // RUIDX_BENCH_BENCH_COMMON_H_
