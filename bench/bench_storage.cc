// E12 — storage-level behaviour (Secs. 3.3 & 4): ancestor determination
// "without any I/O" thanks to rparent, versus a store that must chase
// parent pointers; identifier-clustered area scans versus scattered point
// lookups; and by-name selection through the name postings versus a full
// scan ("database file/table selection", Sec. 4). Every store operation is
// checked: a failure prints its status and exits non-zero without JSON.
#include <chrono>
#include <memory>

#include "bench_common.h"
#include "storage/element_store.h"
#include "storage/streaming_labeler.h"
#include "util/random.h"
#include "xml/serializer.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 20000;
constexpr int kRepeats = 2;

/// Wall-clock milliseconds of the best of kRepeats runs of fn().
template <typename Fn>
double TimeMs(Fn&& fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme scheme;
  std::unique_ptr<storage::ElementStore> store;
  std::vector<xml::Node*> deep_nodes;  // nodes by increasing depth

  Fixture() : scheme(DefaultAreas()) {
    doc = MakeTopology("uniform", kScale);
    scheme.Build(doc->root());
    auto created = storage::ElementStore::Create("", /*buffer_pool_pages=*/32);
    if (!created.ok()) FailBench("store create", created.status());
    store = created.MoveValueUnsafe();
    if (Status st = store->BulkLoad(scheme, doc->root()); !st.ok()) {
      FailBench("bulk load", st);
    }
    if (Status st = store->Flush(); !st.ok()) FailBench("flush", st);
    // One representative node per depth.
    int depth_seen = -1;
    xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int depth) {
      if (depth > depth_seen) {
        deep_nodes.push_back(n);
        depth_seen = depth;
      }
      return true;
    });
  }
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

void AncestorIoTable() {
  Fixture& fixture = GetFixture();
  TablePrinter table(
      "page accesses per ancestor check, by depth of the descendant "
      "(buffer pool cleared between runs not needed: logical accesses "
      "counted)");
  table.SetHeader({"descendant depth", "rparent arithmetic", "parent pointers"});
  core::Ruid2Id root_id = fixture.scheme.label(fixture.doc->root());
  for (size_t d = 1; d < fixture.deep_nodes.size(); ++d) {
    core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes[d]);
    fixture.store->ResetStats();
    bool a = fixture.store->IsAncestorViaRuid(fixture.scheme, root_id, deep_id);
    uint64_t ruid_io = fixture.store->logical_page_accesses();
    fixture.store->ResetStats();
    auto b = fixture.store->IsAncestorViaParentPointers(root_id, deep_id);
    uint64_t nav_io = fixture.store->logical_page_accesses();
    if (!a || !b.ok() || !*b) {
      table.AddRow({std::to_string(d), "DISAGREE", "DISAGREE"});
      continue;
    }
    table.AddRow({std::to_string(d), std::to_string(ruid_io),
                  std::to_string(nav_io)});
  }
  table.Print();
}

void AreaScanTable() {
  Fixture& fixture = GetFixture();
  TablePrinter table(
      "fetching all members of one area: identifier-range scan vs point "
      "lookups (identifier-sorted records cluster, Sec. 2.1/4)");
  table.SetHeader({"area (global)", "members", "scan page accesses",
                   "point-lookup page accesses"});
  const auto& rows = fixture.scheme.ktable().rows();
  Rng rng(3);
  for (int pick = 0; pick < 5; ++pick) {
    const auto& row = rows[rng.NextBounded(rows.size())];
    std::vector<core::Ruid2Id> ids;
    fixture.store->ResetStats();
    Status scanned =
        fixture.store->ScanArea(row.global,
                                [&](const storage::ElementRecord& record) {
                                  ids.push_back(record.id);
                                  return true;
                                });
    if (!scanned.ok()) FailBench("area scan", scanned);
    uint64_t scan_io = fixture.store->logical_page_accesses();
    fixture.store->ResetStats();
    for (const core::Ruid2Id& id : ids) {
      auto got = fixture.store->Get(id);
      if (!got.ok()) FailBench("point get " + id.ToString(), got.status());
    }
    uint64_t point_io = fixture.store->logical_page_accesses();
    table.AddRow({row.global.ToDecimalString(), std::to_string(ids.size()),
                  std::to_string(scan_io), std::to_string(point_io)});
  }
  table.Print();
}

void NameSelectionTable() {
  // Sec. 4 "Database file/table selection" names a table after (element
  // name, area global index). The name-posting key [name term | global |
  // local | flag] sorts one store by that same pair, so selecting a name
  // reads only its posting range plus one heap fetch per match. The
  // page-access contrast is per query and does not depend on document
  // size, so a small document keeps the full scans cheap.
  auto doc = MakeTopology("dblp", kScale / 8);
  core::Ruid2Scheme scheme(DefaultAreas());
  scheme.Build(doc->root());
  auto created = storage::ElementStore::Create("", 32);
  if (!created.ok()) FailBench("store create", created.status());
  std::unique_ptr<storage::ElementStore> store = created.MoveValueUnsafe();
  if (Status st = store->BulkLoad(scheme, doc->root()); !st.ok()) {
    FailBench("dblp bulk load", st);
  }

  TablePrinter table(
      "fetch all elements of one name: name postings vs full area-by-area "
      "scan ('dblp', " + std::to_string(kScale / 8) + " nodes, one store)");
  table.SetHeader({"name", "matches", "postings page accesses",
                   "full scan page accesses"});
  for (const char* name : {"year", "title", "inproceedings"}) {
    store->ResetStats();
    size_t got = 0;
    Status st = store->ScanNameTerm(name, [&](const storage::ElementRecord&) {
      ++got;
      return true;
    });
    if (!st.ok()) FailBench(std::string("name scan ") + name, st);
    uint64_t postings_io = store->logical_page_accesses();

    store->ResetStats();
    size_t scanned = 0;
    for (const auto& row : scheme.ktable().rows()) {
      st = store->ScanArea(row.global,
                           [&](const storage::ElementRecord& record) {
                             if (record.name == name) ++scanned;
                             return true;
                           });
      if (!st.ok()) FailBench("area scan", st);
    }
    uint64_t scan_io = store->logical_page_accesses();
    if (got != scanned) {
      FailBench(std::string("name selection ") + name,
                Status::Corruption("postings found " + std::to_string(got) +
                                   ", full scan found " +
                                   std::to_string(scanned)));
    }
    table.AddRow({name, std::to_string(got), std::to_string(postings_io),
                  std::to_string(scan_io)});
  }
  table.Print();
}

/// Partition geometry for the 100k-node load: the partitioner's adaptive
/// granularity budgets areas off the node count and folds undersized
/// splinters back up, so area count tracks data volume, not topology
/// accidents, and every local index of this deep document fits the
/// posting codec (hand-picked coarse budgets push it past the 96-bit cap).
core::PartitionOptions LargeLoadAreas() {
  core::PartitionOptions areas;
  areas.target_area_count = 256;
  return areas;
}

void LargeLoadTable(BenchJsonWriter* json) {
  // Not a paper table: the serial bulk load of a 100k-node 'random'
  // document into one store, the store half of the DOM ingest path.
  constexpr uint64_t kLargeScale = 100000;
  auto doc = MakeTopology("random", kLargeScale);
  core::Ruid2Scheme scheme(LargeLoadAreas());
  scheme.Build(doc->root());
  double load_ms = TimeMs([&] {
    auto store = storage::ElementStore::Create("");
    if (!store.ok()) FailBench("store create", store.status());
    Status st = (*store)->BulkLoad(scheme, doc->root());
    if (!st.ok()) FailBench("bulk load", st);
  });
  TablePrinter table("one store, 'random' " + std::to_string(kLargeScale) +
                     " nodes (best of " + std::to_string(kRepeats) + ")");
  table.SetHeader({"labeled nodes", "areas", "bulk load ms"});
  table.AddRow({std::to_string(scheme.label_count()),
                std::to_string(scheme.partition().areas.size()),
                TablePrinter::FormatDouble(load_ms, 3)});
  table.Print();
  json->Metric("bulk_load_ms_random_100k", load_ms, "ms");
}

void StoreThroughputTable() {
  // Not a paper table: the single store's bulk-load and point-get times on
  // the uniform fixture document.
  Fixture& fixture = GetFixture();
  double load_ms = TimeMs([&] {
    auto fresh = storage::ElementStore::Create("", 32);
    if (!fresh.ok()) FailBench("store create", fresh.status());
    Status st = (*fresh)->BulkLoad(fixture.scheme, fixture.doc->root());
    if (!st.ok()) FailBench("bulk load", st);
  });

  // A shuffled sample of stored identifiers, so lookups hop across areas.
  std::vector<core::Ruid2Id> sample;
  xml::PreorderTraverse(fixture.doc->root(), [&](xml::Node* n, int) {
    sample.push_back(fixture.scheme.label(n));
    return true;
  });
  Rng rng(17);
  for (size_t i = sample.size(); i > 1; --i) {
    std::swap(sample[i - 1], sample[rng.NextBounded(i)]);
  }
  if (sample.size() > 4096) sample.resize(4096);
  for (const core::Ruid2Id& id : sample) {
    auto got = fixture.store->Get(id);
    if (!got.ok()) FailBench("point get " + id.ToString(), got.status());
  }
  double get_ms = TimeMs([&] {
    for (const core::Ruid2Id& id : sample) {
      benchmark::DoNotOptimize(fixture.store->Get(id));
    }
  });

  TablePrinter table("one store, 'uniform' " + std::to_string(kScale) +
                     " nodes (best of " + std::to_string(kRepeats) + ")");
  table.SetHeader({"bulk load ms", "point gets", "point gets ms"});
  table.AddRow({TablePrinter::FormatDouble(load_ms, 3),
                std::to_string(sample.size()),
                TablePrinter::FormatDouble(get_ms, 3)});
  table.Print();
  BenchJsonWriter json("storage");
  json.Metric("nodes", static_cast<double>(fixture.scheme.label_count()));
  json.Metric("bulk_load_ms", load_ms, "ms");
  json.Metric("point_get_ms", get_ms, "ms");
  LargeLoadTable(&json);
  json.Write();
}

void PrintTables() {
  Banner("E12: storage I/O",
         "Sec. 3.3 — ancestor checks without I/O; Sec. 4 — area clustering "
         "and name selection");
  AncestorIoTable();
  AreaScanTable();
  NameSelectionTable();
  StoreThroughputTable();
}

void BM_GetBySimpleId(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  auto nodes = xml::CollectPreorder(fixture.doc->root());
  Rng rng(11);
  for (auto _ : state) {
    xml::Node* n = nodes[rng.NextBounded(nodes.size())];
    auto got = fixture.store->Get(fixture.scheme.label(n));
    if (!got.ok()) {
      state.SkipWithError(got.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_GetBySimpleId)->Unit(benchmark::kMicrosecond);

void BM_AncestorViaRuid(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  core::Ruid2Id root_id = fixture.scheme.label(fixture.doc->root());
  core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes.back());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.store->IsAncestorViaRuid(fixture.scheme, root_id, deep_id));
  }
}
BENCHMARK(BM_AncestorViaRuid);

void BM_AncestorViaParentPointers(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  core::Ruid2Id root_id = fixture.scheme.label(fixture.doc->root());
  core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes.back());
  for (auto _ : state) {
    auto is_ancestor =
        fixture.store->IsAncestorViaParentPointers(root_id, deep_id);
    if (!is_ancestor.ok()) {
      state.SkipWithError(is_ancestor.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(is_ancestor);
  }
}
BENCHMARK(BM_AncestorViaParentPointers);

void BM_FetchAncestors(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  core::Ruid2Id deep_id = fixture.scheme.label(fixture.deep_nodes.back());
  for (auto _ : state) {
    auto ancestors = fixture.store->FetchAncestors(fixture.scheme, deep_id);
    if (!ancestors.ok()) {
      state.SkipWithError(ancestors.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(ancestors);
  }
}
BENCHMARK(BM_FetchAncestors)->Unit(benchmark::kMicrosecond);

void BM_StreamLabelToStore(benchmark::State& state) {
  auto doc = MakeTopology("xmark", kScale);
  std::string text = xml::Serialize(doc->document_node());
  for (auto _ : state) {
    auto store = storage::ElementStore::Create("", 64);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      break;
    }
    auto stats =
        storage::StreamLabelToStore(text, DefaultAreas(), store->get());
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(stats);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StreamLabelToStore)->Unit(benchmark::kMillisecond);

void BM_DomBuildAndBulkLoad(benchmark::State& state) {
  auto doc = MakeTopology("xmark", kScale);
  std::string text = xml::Serialize(doc->document_node());
  for (auto _ : state) {
    auto parsed = xml::Parse(text);
    if (!parsed.ok()) {
      state.SkipWithError(parsed.status().ToString().c_str());
      break;
    }
    core::Ruid2Scheme scheme(DefaultAreas());
    scheme.Build((*parsed)->root());
    auto store = storage::ElementStore::Create("", 64);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      break;
    }
    Status loaded = (*store)->BulkLoad(scheme, (*parsed)->root());
    if (!loaded.ok()) {
      state.SkipWithError(loaded.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_DomBuildAndBulkLoad)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
