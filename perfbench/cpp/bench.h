// Shared pieces of the end-to-end benchmark: workload specs, latency
// samples, the failure ledger, answer-check failure, and the span tracer.
//
// The benchmark measures ruidx from outside: every timed region is a call
// into a public function of the xml, core, storage or xpath libraries, and
// every counter comes from a public stats accessor.
#ifndef PERFBENCH_CPP_BENCH_H_
#define PERFBENCH_CPP_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Pool of the stores the ingest rounds write: about 1/17 of the store.
constexpr size_t kIngestPoolPages = 64;

/// One workload: the buffer pool its stores are queried and updated in,
/// the snapshot readers beside the writer, and the time an epoch gives the
/// query and update phases (phases.h).
struct WorkloadSpec {
  const char* name;
  size_t pool_pages;
  int readers;
  double query_s;
  double update_s;
};

const WorkloadSpec* FindWorkload(const std::string& name);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Answer class to corrupt on purpose ("" = none): the self-test uses it
  /// to prove that a wrong answer ends the run with a non-zero exit.
  std::string corrupt;
  /// Directory (inside the checkout) for stores and the trace file.
  std::string work_dir;
};

const Options& Opts();
void SetOptions(Options options);

/// True exactly once per class when --corrupt names that class.
bool ShouldCorrupt(const char* answer_class);

/// Latency (or any) samples with interpolated quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  /// 0 when empty.
  double Mean() const { return empty() ? 0 : Sum() / size(); }

 private:
  std::vector<double> values_;
};

/// Counts attempted operations and the ones that returned a non-OK Status.
/// Every Status the benchmark receives goes through Record.
class Ledger {
 public:
  /// Returns st.ok(); logs the first few failures to stderr.
  bool Record(const ruidx::Status& st, const char* what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

Ledger& Ops();

/// A set-up step failed (not a measured operation): exit non-zero, no result.
[[noreturn]] void SetupFailure(const std::string& what);
/// An answer check failed: exit non-zero, no result.
[[noreturn]] void WrongAnswer(const std::string& what);
/// Directory removed by the two exits above and at normal shutdown.
void SetStoreDir(const std::string& dir);
void RemoveStoreDir();

// ---------------------------------------------------------------------------
// Tracing. A traced operation owns its spans (name, start, end, parent; all
// spans of one operation share its id) and counter deltas; finished
// operations go to the process-wide Tracer, which keeps them in memory and
// writes them once, at the end of the run.

struct SpanRecord {
  uint32_t id = 0;      // 1 = the operation's root span
  uint32_t parent = 0;  // 0 = none (root)
  const char* name = "";
  int64_t start_ns = 0;  // relative to the tracer's epoch
  int64_t end_ns = 0;
};

struct CounterRecord {
  const char* name = "";
  double delta = 0;
};

struct OpRecord {
  uint64_t op = 0;
  const char* op_class = "";
  std::vector<SpanRecord> spans;
  std::vector<CounterRecord> counters;
};

class OpTrace {
 public:
  explicit OpTrace(const char* op_class);
  ~OpTrace();
  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

  uint32_t Open(const char* name);
  void Close(uint32_t id);
  void Counter(const char* name, double delta);

 private:
  OpRecord record_;
  std::vector<uint32_t> stack_;
};

/// RAII child span of the innermost open span; a no-op on a null trace.
class Span {
 public:
  Span(OpTrace* trace, const char* name)
      : trace_(trace), id_(trace ? trace->Open(name) : 0) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void End() {
    if (trace_ != nullptr) trace_->Close(id_);
    trace_ = nullptr;
  }

 private:
  OpTrace* trace_;
  uint32_t id_;
};

/// Every other operation of a class is traced in a --trace 1 run; the
/// untraced half gives the same run's untraced latencies, so the tracing
/// overhead is measured under identical conditions.
std::unique_ptr<OpTrace> MaybeTrace(const char* op_class, uint64_t seq);

class Tracer {
 public:
  static Tracer& Get();
  int64_t NowNs() const;
  void Submit(OpRecord record);
  /// The finished operations; call only after every traced thread joined.
  const std::vector<OpRecord>& ops() const { return ops_; }
  /// Writes one JSON line per span and per counter delta.
  ruidx::Status Write(const std::string& path) const;

 private:
  Tracer();
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_op_{1};
  std::vector<OpRecord> ops_;  // appended under a mutex by Submit
  friend class OpTrace;
};

/// How much slower the traced half of an operation class ran than the
/// untraced half, in % of the untraced median.
double OverheadPct(const Samples& traced, const Samples& untraced);

/// Durations (µs) of every span named `span` inside operations of
/// `op_class`.
Samples SpanMicros(const char* op_class, const char* span);
/// Counter `name` summed per operation of `op_class`.
Samples CounterPerOp(const char* op_class, const char* name);
/// Per-layer self time in ms, summed over all traced operations: a span's
/// duration minus what its children cover, credited to the layer named by
/// the span's prefix ("storage.Get" -> storage); root spans count as bench.
std::vector<std::pair<std::string, double>> LayerSelfMs();

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics and recorded context of one run.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void ContextNum(std::string key, double v);
  void ContextStr(std::string key, const std::string& v);
  std::string ContextJson() const;
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
  /// (key, value written as a JSON literal)
  std::vector<std::pair<std::string, std::string>> context_;
};

std::string JsonQuote(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_BENCH_H_
