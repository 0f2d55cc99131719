// The three phases of an epoch. The epoch ingests the document twice (DOM
// path and streaming path each time); the first round's store is then
// queried and the second round's store updated beside snapshot readers, in
// short alternating turns, so the query and update samples are spread
// evenly over the epoch. A run repeats epochs until its time is up, so
// every metric samples the whole run rather than one stretch of it.
// Samples are pooled across the run and reported once at the end.
// A workload decides the buffer pool, the readers and the time each phase
// gets.
#ifndef PERFBENCH_CPP_PHASES_H_
#define PERFBENCH_CPP_PHASES_H_

#include <memory>
#include <string>

#include "bench.h"
#include "core/ruid2.h"
#include "corpus.h"
#include "storage/element_store.h"
#include "xml/dom.h"

namespace perfbench {

// Samples pooled across epochs. Index [1] holds the traced half of a
// --trace 1 run, [0] everything else.

struct IngestSamples {
  Samples dom_mb_s[2];
  Samples stream_mb_s[2];
  int rounds = 0;
};

struct QuerySamples {
  Samples latency_us[3][2];  // [lookup, join, xpath][traced]
  uint64_t seq[3] = {0, 0, 0};
  double cache_hits = 0;
  double cache_misses = 0;
};

struct UpdateSamples {
  Samples update_us[2];
  Samples commit_ms[2];
  Samples snapshot_us[2];
  Samples reader_lateness_us;
  uint64_t reader_skipped = 0;
  uint64_t updates = 0;  // attempted, for trace sampling
  uint64_t commits = 0;
  uint64_t committed = 0;
  double busy_us = 0;  // time in updates and commits
  double bloom_fpr = 0;
  uint64_t reader_targets = 0;
};

struct RunState {
  const WorkloadSpec* spec = nullptr;
  const Corpus* corpus = nullptr;
  std::string dir;  // directory for store files, removed at exit
  uint64_t store_bytes = 0;  // of the last DOM-path store, after commit

  IngestSamples ingest;
  QuerySamples query;
  UpdateSamples update;
};

/// What a DOM-path ingest round leaves for a query or update phase: the
/// parsed document, its scheme, and the committed, closed store file.
struct Ingested {
  std::unique_ptr<ruidx::xml::Document> doc;
  std::unique_ptr<ruidx::core::Ruid2Scheme> scheme;
  std::string path;
};

/// One round of both ingest paths; exits through SetupFailure when the DOM
/// path fails, since there is then no store to go on with.
Ingested IngestRound(RunState* s);
/// Reopens an ingested store with `pool_pages`; exits through SetupFailure
/// when it cannot.
std::unique_ptr<ruidx::storage::ElementStore> ReopenStore(
    const std::string& path, size_t pool_pages);
/// Removes a store's files.
void RemoveStore(const std::string& path);

/// The closed-loop query client on one ingested store, reopened with the
/// workload's pool. The constructor runs the warm-up cycle; each Run adds
/// cycles of the mix until its budget is spent, at least one.
class QueryPhase {
 public:
  QueryPhase(RunState* s, Ingested* in);
  ~QueryPhase();
  QueryPhase(const QueryPhase&) = delete;
  QueryPhase& operator=(const QueryPhase&) = delete;
  void Run(double budget_s);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The writer on one ingested store, reopened with the workload's pool.
/// Each Run starts the workload's snapshot readers, updates and commits
/// until its budget is spent (at least one commit), and joins the readers.
/// Finish checks the store against the scheme.
class UpdatePhase {
 public:
  UpdatePhase(RunState* s, Ingested* in);
  ~UpdatePhase();
  UpdatePhase(const UpdatePhase&) = delete;
  UpdatePhase& operator=(const UpdatePhase&) = delete;
  void Run(double budget_s);
  void Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

void ReportIngest(const RunState& s, Report* report);
void ReportQuery(const RunState& s, Report* report);
void ReportUpdate(const RunState& s, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_PHASES_H_
