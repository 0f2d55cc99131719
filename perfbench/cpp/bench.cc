#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

namespace perfbench {
namespace {

// Both workloads query and update the same document (corpus.cc). An epoch
// takes about six seconds on the sizing box, a third of it ingesting.
const WorkloadSpec kWorkloads[] = {
    // 64 pages: the store is about 17 times the pool.
    {"query_xmark", /*pool_pages=*/64, /*readers=*/0, /*query_s=*/2.4,
     /*update_s=*/0.6},
    // 2048 pages hold the whole store.
    {"update_xmark", 2048, 2, 1.4, 1.6},
};

Options g_options;
std::mutex g_corrupt_mu;
std::vector<std::string> g_corrupted;
std::mutex g_store_dir_mu;
std::string g_store_dir;

std::mutex& TracerMu() {
  static std::mutex mu;
  return mu;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string LayerOf(const SpanRecord& s) {
  if (s.parent == 0) return "bench";
  std::string name = s.name;
  return name.substr(0, name.find('.'));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const Options& Opts() { return g_options; }
void SetOptions(Options options) { g_options = std::move(options); }

bool ShouldCorrupt(const char* answer_class) {
  if (g_options.corrupt != answer_class) return false;
  std::lock_guard<std::mutex> lock(g_corrupt_mu);
  if (std::find(g_corrupted.begin(), g_corrupted.end(), answer_class) !=
      g_corrupted.end()) {
    return false;
  }
  g_corrupted.emplace_back(answer_class);
  return true;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

bool Ledger::Record(const ruidx::Status& st, const char* what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (st.ok()) return true;
  uint64_t n = failed_.fetch_add(1, std::memory_order_relaxed);
  if (n < 5) {
    std::fprintf(stderr, "operation failed: %s: %s\n", what,
                 st.ToString().c_str());
  }
  return false;
}

Ledger& Ops() {
  static Ledger ledger;
  return ledger;
}

void SetStoreDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_store_dir_mu);
  g_store_dir = dir;
}

void RemoveStoreDir() {
  std::lock_guard<std::mutex> lock(g_store_dir_mu);
  if (g_store_dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(g_store_dir, ec);
  g_store_dir.clear();
}

// Both exits skip static destructors: reader or flusher threads may still
// be running, and the process ends here with no result line.
void SetupFailure(const std::string& what) {
  std::fprintf(stderr, "set-up failed: %s\n", what.c_str());
  RemoveStoreDir();
  std::fflush(stdout);
  std::_Exit(4);
}

void WrongAnswer(const std::string& what) {
  std::fprintf(stderr, "wrong answer: %s\n", what.c_str());
  RemoveStoreDir();
  std::fflush(stdout);
  std::_Exit(3);
}

// ---------------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Tracer::Submit(OpRecord record) {
  std::lock_guard<std::mutex> lock(TracerMu());
  ops_.push_back(std::move(record));
}

ruidx::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return ruidx::Status::IOError("cannot write " + path);
  for (const OpRecord& op : ops_) {
    for (const SpanRecord& s : op.spans) {
      out << "{\"op\":" << op.op << ",\"class\":" << JsonQuote(op.op_class)
          << ",\"span\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":" << JsonQuote(s.name)
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    for (const CounterRecord& c : op.counters) {
      out << "{\"op\":" << op.op << ",\"class\":" << JsonQuote(op.op_class)
          << ",\"counter\":" << JsonQuote(c.name)
          << ",\"delta\":" << FormatNumber(c.delta) << "}\n";
    }
  }
  out.close();
  if (!out) return ruidx::Status::IOError("short write to " + path);
  return ruidx::Status::OK();
}

OpTrace::OpTrace(const char* op_class) {
  Tracer& t = Tracer::Get();
  record_.op = t.next_op_.fetch_add(1, std::memory_order_relaxed);
  record_.op_class = op_class;
  Open(op_class);
}

OpTrace::~OpTrace() {
  while (!stack_.empty()) Close(stack_.back());
  Tracer::Get().Submit(std::move(record_));
}

uint32_t OpTrace::Open(const char* name) {
  SpanRecord s;
  s.id = static_cast<uint32_t>(record_.spans.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.name = name;
  s.start_ns = Tracer::Get().NowNs();
  record_.spans.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void OpTrace::Close(uint32_t id) {
  int64_t now = Tracer::Get().NowNs();
  if (std::find(stack_.begin(), stack_.end(), id) == stack_.end()) return;
  // Spans close innermost first; closing an outer span closes the rest.
  while (!stack_.empty()) {
    uint32_t top = stack_.back();
    stack_.pop_back();
    record_.spans[top - 1].end_ns = now;
    if (top == id) break;
  }
}

void OpTrace::Counter(const char* name, double delta) {
  record_.counters.push_back({name, delta});
}

std::unique_ptr<OpTrace> MaybeTrace(const char* op_class, uint64_t seq) {
  if (!g_options.trace || seq % 2 != 0) return nullptr;
  return std::make_unique<OpTrace>(op_class);
}

double OverheadPct(const Samples& traced, const Samples& untraced) {
  if (traced.empty() || untraced.empty() || untraced.Median() <= 0) return 0;
  return (traced.Median() / untraced.Median() - 1) * 100;
}

Samples SpanMicros(const char* op_class, const char* span) {
  Samples out;
  for (const OpRecord& op : Tracer::Get().ops()) {
    if (std::string(op.op_class) != op_class) continue;
    for (const SpanRecord& s : op.spans) {
      if (std::string(s.name) == span) {
        out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

Samples CounterPerOp(const char* op_class, const char* name) {
  Samples out;
  for (const OpRecord& op : Tracer::Get().ops()) {
    if (std::string(op.op_class) != op_class) continue;
    double sum = 0;
    bool seen = false;
    for (const CounterRecord& c : op.counters) {
      if (std::string(c.name) != name) continue;
      sum += c.delta;
      seen = true;
    }
    if (seen) out.Add(sum);
  }
  return out;
}

std::vector<std::pair<std::string, double>> LayerSelfMs() {
  std::map<std::string, double> self;
  for (const OpRecord& op : Tracer::Get().ops()) {
    std::vector<int64_t> child_ns(op.spans.size() + 1, 0);
    for (const SpanRecord& s : op.spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const SpanRecord& s : op.spans) {
      int64_t own = s.end_ns - s.start_ns - child_ns[s.id];
      self[LayerOf(s)] += static_cast<double>(own) / 1e6;
    }
  }
  return {self.begin(), self.end()};
}

// ---------------------------------------------------------------------------

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::ContextNum(std::string key, double v) {
  context_.emplace_back(std::move(key), FormatNumber(v));
}

void Report::ContextStr(std::string key, const std::string& v) {
  context_.emplace_back(std::move(key), JsonQuote(v));
}

std::string Report::ContextJson() const {
  std::ostringstream out;
  out << "{\"context\": {";
  for (size_t i = 0; i < context_.size(); ++i) {
    out << (i ? ", " : "") << JsonQuote(context_[i].first) << ": "
        << context_[i].second;
  }
  out << "}}";
  return out.str();
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << JsonQuote(m.name)
        << ": {\"value\": " << FormatNumber(m.value)
        << ", \"unit\": " << JsonQuote(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
