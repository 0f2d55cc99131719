// Ingest phase: XML bytes -> xml::Parse -> Ruid2Scheme::Build ->
// ElementStore::Create + BulkLoad -> Flush -> close -> ElementStore::Open,
// then StreamLabel into a second fresh store with a Put sink, then Flush.
#include <filesystem>

#include "phases.h"
#include "storage/streaming_labeler.h"
#include "xml/parser.h"

namespace perfbench {

namespace core = ruidx::core;
namespace storage = ruidx::storage;
namespace xml = ruidx::xml;

namespace {

void VerifyStore(storage::ElementStore* store, uint64_t nodes,
                 const char* what) {
  uint64_t count = store->record_count();
  if (ShouldCorrupt("ingest")) ++count;
  if (count != nodes) {
    WrongAnswer(std::string(what) + ": record_count " + std::to_string(count) +
                " != node count " + std::to_string(nodes));
  }
  ruidx::Status st = store->VerifyOnDisk();
  if (st.ok()) st = store->VerifySecondaryIndexes();
  if (!st.ok()) WrongAnswer(std::string(what) + ": " + st.ToString());
}

struct RoundResult {
  bool ok = false;
  double seconds = 0;
};

// The DOM path. On success the parsed document, its scheme and the
// committed store's path are left in `out`.
RoundResult DomIngest(RunState* s, int round, Ingested* out) {
  const Corpus& c = *s->corpus;
  std::string path = s->dir + "/dom-" + std::to_string(round) + ".db";
  std::unique_ptr<OpTrace> trace = MaybeTrace("ingest.dom", round);
  OpTrace* tr = trace.get();
  RoundResult r;

  auto t0 = Clock::now();
  Span parse_span(tr, "xml.Parse");
  auto parsed = xml::Parse(c.xml);
  parse_span.End();
  if (!Ops().Record(parsed.status(), "xml::Parse")) return r;
  std::unique_ptr<xml::Document> doc = parsed.MoveValueUnsafe();

  auto scheme = std::make_unique<core::Ruid2Scheme>();
  {
    Span span(tr, "core.Build");
    scheme->Build(doc->root());
  }

  Span create_span(tr, "storage.Create");
  auto created = storage::ElementStore::Create(path, kIngestPoolPages);
  create_span.End();
  if (!Ops().Record(created.status(), "ElementStore::Create")) return r;
  std::unique_ptr<storage::ElementStore> store = created.MoveValueUnsafe();

  Span load_span(tr, "storage.BulkLoad");
  ruidx::Status st = store->BulkLoad(*scheme, doc->root());
  load_span.End();
  if (!Ops().Record(st, "ElementStore::BulkLoad")) return r;

  Span flush_span(tr, "storage.Flush");
  st = store->Flush();
  flush_span.End();
  if (!Ops().Record(st, "ElementStore::Flush")) return r;

  storage::BufferPoolStats pool = store->pool_stats();
  storage::PagerStats pager = store->pager_stats();
  {
    Span span(tr, "storage.Close");
    store.reset();
  }
  Span open_span(tr, "storage.Open");
  auto opened = storage::ElementStore::Open(path, kIngestPoolPages);
  open_span.End();
  if (!Ops().Record(opened.status(), "ElementStore::Open")) return r;
  store = opened.MoveValueUnsafe();
  auto t1 = Clock::now();
  r.seconds = MicrosBetween(t0, t1) / 1e6;

  // Untimed: answer checks and layer counters.
  VerifyStore(store.get(), c.nodes, "dom ingest");
  std::error_code ec;
  uint64_t bytes = std::filesystem::file_size(path, ec);
  if (ec) SetupFailure("stat " + path + ": " + ec.message());
  if (tr != nullptr) {
    const double mb = static_cast<double>(c.xml.size()) / 1e6;
    tr->Counter("areas",
                static_cast<double>(scheme->partition().areas.size()));
    tr->Counter("pool_hits", static_cast<double>(pool.hits));
    tr->Counter("pool_misses", static_cast<double>(pool.misses));
    tr->Counter("pool_evictions", static_cast<double>(pool.evictions));
    tr->Counter("pages_written_per_mb",
                static_cast<double>(pager.physical_writes) / mb);
    tr->Counter("pages_allocated", static_cast<double>(pager.allocations));
    storage::BPlusTree::LeafStats leaf;
    if (Ops().Record(store->ComputeLeafStats(&leaf),
                     "ElementStore::ComputeLeafStats") &&
        leaf.leaf_pages > 0 && leaf.key_bytes_raw > 0) {
      tr->Counter("index_key_bytes_ratio",
                  static_cast<double>(leaf.key_bytes_stored) /
                      static_cast<double>(leaf.key_bytes_raw));
      tr->Counter("leaf_entries_per_page",
                  static_cast<double>(leaf.entries) /
                      static_cast<double>(leaf.leaf_pages));
    }
  }
  store.reset();

  out->doc = std::move(doc);
  out->scheme = std::move(scheme);
  out->path = path;
  s->store_bytes = bytes;
  r.ok = true;
  return r;
}

RoundResult StreamIngest(RunState* s, int round) {
  const Corpus& c = *s->corpus;
  std::string path = s->dir + "/stream-" + std::to_string(round) + ".db";
  std::unique_ptr<OpTrace> trace = MaybeTrace("ingest.stream", round);
  OpTrace* tr = trace.get();
  RoundResult r;

  auto t0 = Clock::now();
  Span create_span(tr, "storage.Create");
  auto created = storage::ElementStore::Create(path, kIngestPoolPages);
  create_span.End();
  if (!Ops().Record(created.status(), "ElementStore::Create")) return r;
  std::unique_ptr<storage::ElementStore> store = created.MoveValueUnsafe();

  // The Put time inside the sink is summed, not spanned: one span per
  // record would make the trace as large as the store.
  double put_us = 0;
  storage::RecordSink sink = [&](const storage::ElementRecord& record) {
    if (tr == nullptr) {
      ruidx::Status st = store->Put(record);
      Ops().Record(st, "ElementStore::Put");
      return st;
    }
    auto a = Clock::now();
    ruidx::Status st = store->Put(record);
    put_us += MicrosBetween(a, Clock::now());
    Ops().Record(st, "ElementStore::Put");
    return st;
  };
  Span label_span(tr, "storage.StreamLabel");
  auto a = Clock::now();
  auto streamed = storage::StreamLabel(c.xml, core::PartitionOptions{}, sink);
  double label_us = MicrosBetween(a, Clock::now());
  label_span.End();
  bool ok = Ops().Record(streamed.status(), "storage::StreamLabel");
  if (ok) {
    Span flush_span(tr, "storage.Flush");
    ok = Ops().Record(store->Flush(), "ElementStore::Flush");
  }
  auto t1 = Clock::now();
  if (ok) {
    r.ok = true;
    r.seconds = MicrosBetween(t0, t1) / 1e6;
    VerifyStore(store.get(), c.nodes, "stream ingest");
    if (tr != nullptr) {
      tr->Counter("stream_put_ms", put_us / 1e3);
      tr->Counter("stream_label_ms", (label_us - put_us) / 1e3);
    }
  }
  store.reset();
  RemoveStore(path);
  return r;
}

}  // namespace

std::unique_ptr<storage::ElementStore> ReopenStore(const std::string& path,
                                                   size_t pool_pages) {
  auto opened = storage::ElementStore::Open(path, pool_pages);
  if (!Ops().Record(opened.status(), "ElementStore::Open")) {
    SetupFailure("reopen " + path + ": " + opened.status().ToString());
  }
  return opened.MoveValueUnsafe();
}

void RemoveStore(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".wal", ec);
}

Ingested IngestRound(RunState* s) {
  const double mb = static_cast<double>(s->corpus->xml.size()) / 1e6;
  const int round = s->ingest.rounds++;
  // Traced rounds are the even ones (see MaybeTrace).
  const int traced = Opts().trace && round % 2 == 0 ? 1 : 0;
  Ingested out;
  RoundResult dom = DomIngest(s, round, &out);
  if (dom.ok) s->ingest.dom_mb_s[traced].Add(mb / dom.seconds);
  RoundResult stream = StreamIngest(s, round);
  if (stream.ok) s->ingest.stream_mb_s[traced].Add(mb / stream.seconds);
  if (!dom.ok) SetupFailure("the ingest round failed; no store to go on with");
  return out;
}

void ReportIngest(const RunState& s, Report* report) {
  Report& rep = *report;
  const IngestSamples& in = s.ingest;
  rep.ContextNum("ingest_rounds", in.rounds);
  rep.ContextNum("store_bytes", static_cast<double>(s.store_bytes));
  rep.ContextNum("store_pages",
                 static_cast<double>(s.store_bytes / storage::kPageSize));
  if (!Opts().trace) {
    rep.Add("ingest_mb_s", in.dom_mb_s[0].Median(), "MB/s");
    rep.Add("stream_mb_s", in.stream_mb_s[0].Median(), "MB/s");
    rep.Add("store_bytes_per_input_byte",
            static_cast<double>(s.store_bytes) /
                static_cast<double>(s.corpus->xml.size()),
            "ratio");
    return;
  }
  // Throughput: the untraced median over the traced one, minus one.
  rep.Add("trace.overhead_ingest_pct",
          OverheadPct(in.stream_mb_s[0], in.stream_mb_s[1]) / 2 +
              OverheadPct(in.dom_mb_s[0], in.dom_mb_s[1]) / 2,
          "%");
  rep.Add("xml.parse_ms", SpanMicros("ingest.dom", "xml.Parse").Median() / 1e3,
          "ms");
  rep.Add("core.build_ms",
          SpanMicros("ingest.dom", "core.Build").Median() / 1e3, "ms");
  rep.Add("core.areas", CounterPerOp("ingest.dom", "areas").Median(), "count");
  rep.Add("storage.bulk_load_ms",
          SpanMicros("ingest.dom", "storage.BulkLoad").Median() / 1e3, "ms");
  rep.Add("storage.load_commit_ms",
          SpanMicros("ingest.dom", "storage.Flush").Median() / 1e3, "ms");
  rep.Add("storage.open_ms",
          SpanMicros("ingest.dom", "storage.Open").Median() / 1e3, "ms");
  double hits = CounterPerOp("ingest.dom", "pool_hits").Median();
  double misses = CounterPerOp("ingest.dom", "pool_misses").Median();
  rep.Add("storage.load_pool_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  rep.Add("storage.load_evictions",
          CounterPerOp("ingest.dom", "pool_evictions").Median(), "count");
  rep.Add("storage.stream_put_ms",
          CounterPerOp("ingest.stream", "stream_put_ms").Median(), "ms");
  rep.Add("storage.stream_label_ms",
          CounterPerOp("ingest.stream", "stream_label_ms").Median(), "ms");
  rep.Add("storage.pages_written_per_mb",
          CounterPerOp("ingest.dom", "pages_written_per_mb").Median(),
          "pages/MB");
  rep.Add("storage.pages_allocated",
          CounterPerOp("ingest.dom", "pages_allocated").Median(), "count");
  rep.Add("storage.index_key_bytes_ratio",
          CounterPerOp("ingest.dom", "index_key_bytes_ratio").Median(),
          "ratio");
  rep.Add("storage.leaf_entries_per_page",
          CounterPerOp("ingest.dom", "leaf_entries_per_page").Median(),
          "count");
}

}  // namespace perfbench
