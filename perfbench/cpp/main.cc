// ruidx end-to-end benchmark.
//
//   ruidx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--corrupt <class>]
//
// Prints one JSON context line and, as the last line, the result:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (see README.md). A wrong answer exits 3 and a failed
// set-up exits 4, both without a result line.
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "corpus.h"
#include "phases.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: ruidx_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--corrupt ingest|get|join|xpath|scan]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  o.work_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || o.seconds <= 0) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else if (flag == "--corrupt") {
      o.corrupt = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("missing --workload");
  if (FindWorkload(o.workload) == nullptr) Usage("unknown workload");
  return o;
}

std::string FilesystemType(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

int Main(int argc, char** argv) {
  SetOptions(ParseArgs(argc, argv));
  const Options& opts = Opts();
  const WorkloadSpec& spec = *FindWorkload(opts.workload);

  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  std::string tmpl = opts.work_dir + "/stores-XXXXXX";
  if (mkdtemp(tmpl.data()) == nullptr) {
    SetupFailure("mkdtemp " + tmpl + ": " + std::strerror(errno));
  }
  SetStoreDir(tmpl);

  Report report;
  // Set-up runs kSetupReps times; setup_s is the median. Each repetition
  // must produce the same bytes from the same seed.
  constexpr int kSetupReps = 15;
  Samples setup_s;
  Corpus corpus;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto t0 = Clock::now();
    Corpus c = BuildCorpus(opts.seed);
    setup_s.Add(MicrosBetween(t0, Clock::now()) / 1e6);
    if (rep > 0 && c.xml != corpus.xml) {
      SetupFailure("the generator is not deterministic for this seed");
    }
    corpus = std::move(c);
  }

  report.ContextStr("workload", spec.name);
  report.ContextNum("seed", static_cast<double>(opts.seed));
  report.ContextNum("seconds", opts.seconds);
  report.ContextNum("trace", opts.trace ? 1 : 0);
  report.ContextNum("nproc", std::thread::hardware_concurrency());
  report.ContextStr("build_type", PERFBENCH_BUILD_TYPE);
  report.ContextStr("filesystem", FilesystemType(tmpl));
  report.ContextNum("doc_nodes", static_cast<double>(corpus.nodes));
  report.ContextNum("doc_elements", static_cast<double>(corpus.elements));
  report.ContextNum("doc_bytes", static_cast<double>(corpus.xml.size()));
  report.ContextNum("ingest_pool_pages", kIngestPoolPages);
  report.ContextNum("pool_pages", static_cast<double>(spec.pool_pages));
  report.ContextStr("threads",
                    "ingest and query: 1 client + 1 flusher per open store; "
                    "update: 1 writer + " + std::to_string(spec.readers) +
                        " snapshot readers + 1 flusher, beside the idle "
                        "query store");
  report.ContextStr("flush_policy", "commit (Flush) every 32 updates");

  RunState state;
  state.spec = &spec;
  state.corpus = &corpus;
  state.dir = tmpl;
  // Epochs run while the next one, as long as the mean so far, still ends
  // within --seconds; every run has at least kMinEpochs. An epoch ingests
  // twice, then alternates the query phase on the first store with the
  // update phase on the second, kAlternations times.
  constexpr int kMinEpochs = 2;
  constexpr int kAlternations = 5;
  const auto start = Clock::now();
  int epochs = 0;
  for (;;) {
    const double elapsed_s = MicrosBetween(start, Clock::now()) / 1e6;
    if (epochs >= kMinEpochs &&
        elapsed_s + elapsed_s / epochs > opts.seconds) {
      break;
    }
    Ingested for_query = IngestRound(&state);
    Ingested for_update = IngestRound(&state);
    {
      QueryPhase query(&state, &for_query);
      UpdatePhase update(&state, &for_update);
      for (int i = 0; i < kAlternations; ++i) {
        query.Run(spec.query_s / kAlternations);
        update.Run(spec.update_s / kAlternations);
      }
      update.Finish();
    }
    RemoveStore(for_query.path);
    RemoveStore(for_update.path);
    ++epochs;
  }
  report.ContextNum("epochs", epochs);
  report.ContextNum("measured_s", MicrosBetween(start, Clock::now()) / 1e6);
  ReportIngest(state, &report);
  ReportQuery(state, &report);
  ReportUpdate(state, &report);

  const uint64_t attempted = Ops().attempted();
  const uint64_t failed = Ops().failed();
  if (!opts.trace) {
    report.Add("setup_s", setup_s.Median(), "s");
    report.Add("ok_ratio",
               1.0 - static_cast<double>(failed) /
                         static_cast<double>(attempted),
               "ratio");
  } else {
    for (const auto& [layer, ms] : LayerSelfMs()) {
      report.Add("self." + layer + "_ms", ms, "ms");
    }
    uint64_t spans = 0;
    for (const OpRecord& op : Tracer::Get().ops()) spans += op.spans.size();
    report.Add("trace.spans", static_cast<double>(spans), "count");
    std::string path = opts.work_dir + "/trace-" + spec.name + "-" +
                       std::to_string(opts.seed) + ".jsonl";
    ruidx::Status st = Tracer::Get().Write(path);
    if (!st.ok()) SetupFailure("trace: " + st.ToString());
    report.ContextStr("trace_file", path);
  }
  RemoveStoreDir();
  std::printf("%s\n", report.ContextJson().c_str());
  std::printf("%s\n", report.ResultJson(true, attempted, failed).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
