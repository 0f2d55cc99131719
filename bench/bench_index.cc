// E13 — secondary indexes on the query path (Sec. 4 "database file/table
// selection" taken further): the same binary answers name steps and
// descendant (`//`) steps with the name and path indexes switched on and
// off, and times point gets against one store per topology, so
// BENCH_index.json records how much of the query cost the indexes and the
// store's Bloom filter remove. CI floors: indexed descendant steps must
// beat the full enumeration >= 5x on the uniform topology, the uniform
// store must load, and its Bloom filter must answer >= 90% of point-get
// misses with zero page accesses.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "storage/element_store.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"
#include "xpath/ruid_eval.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 20000;
constexpr int kRepeats = 3;
constexpr size_t kPointGets = 2000;

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

struct TopologyCase {
  const char* name;
  const char* name_step;   // absolute child-axis chain (path-index shape)
  const char* descendant;  // `//name` step (name-index shape)
};

// One name-step and one descendant-step query per topology, chosen so both
// evaluators produce non-empty results.
constexpr TopologyCase kCases[] = {
    {"uniform", "/root/t0/t1/t2", "//t3"},
    {"deep", "/section/para", "//para"},
    {"xmark", "/site/people/person/name", "//increase"},
};

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme scheme;
  std::unique_ptr<storage::ElementStore> store;
  Status load_status;
  std::unique_ptr<xpath::NameIndex> name_index;
  std::unique_ptr<xpath::PathIndex> path_index;
  std::unique_ptr<xpath::RuidEvaluator> plain;    // enumeration paths only
  std::unique_ptr<xpath::RuidEvaluator> indexed;  // name + path index
  std::vector<core::Ruid2Id> hit_ids;
  std::vector<core::Ruid2Id> miss_ids;

  explicit Fixture(const std::string& topology) : scheme(DefaultAreas()) {
    doc = MakeTopology(topology, kScale);
    scheme.Build(doc->root());
    name_index = std::make_unique<xpath::NameIndex>(doc->root());
    path_index = std::make_unique<xpath::PathIndex>(doc->root());
    plain = std::make_unique<xpath::RuidEvaluator>(doc.get(), &scheme);
    indexed = std::make_unique<xpath::RuidEvaluator>(doc.get(), &scheme);
    indexed->SetNameIndex(name_index.get());
    indexed->SetPathIndex(path_index.get());
    auto created = storage::ElementStore::Create("");
    if (!created.ok()) FailBench("store create", created.status());
    store = created.MoveValueUnsafe();
    load_status = store->BulkLoad(scheme, doc->root());
    // Evenly sampled stored identifiers (hits) and, for each, a same-area
    // identifier no node carries (miss): the local component is pushed far
    // past any sibling enumeration, so only the Bloom filter stands
    // between the lookup and the primary B+tree.
    std::vector<xml::Node*> elements;
    xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
      if (n->is_element()) elements.push_back(n);
      return true;
    });
    size_t stride = std::max<size_t>(1, elements.size() / kPointGets);
    for (size_t i = 0; i < elements.size(); i += stride) {
      const core::Ruid2Id& id = scheme.label(elements[i]);
      hit_ids.push_back(id);
      core::Ruid2Id miss = id;
      miss.local += uint64_t{1} << 20;
      miss.is_area_root = false;
      miss_ids.push_back(miss);
    }
  }
};

Fixture& UniformFixture() {
  static Fixture fixture("uniform");
  return fixture;
}

/// Times Get over `ids`. A hit that is not found, or a lookup that fails
/// with anything but NotFound, fails the bench: the timing would otherwise
/// measure error paths.
double TimePointGets(Fixture& fixture, const std::vector<core::Ruid2Id>& ids,
                     bool expect_found) {
  for (const core::Ruid2Id& id : ids) {
    auto got = fixture.store->Get(id);
    if (got.ok() != expect_found ||
        (!got.ok() && !got.status().IsNotFound())) {
      FailBench("point get " + id.ToString(),
                got.ok() ? Status::Corruption("miss id found") : got.status());
    }
  }
  return TimeMs([&fixture, &ids]() {
    for (const core::Ruid2Id& id : ids) {
      benchmark::DoNotOptimize(fixture.store->Get(id));
    }
  });
}

void IndexTables() {
  Banner("E13: secondary indexes on the query path",
         "index-on vs index-off name / descendant steps; point gets");
  BenchJsonWriter json("index");

  TablePrinter steps(
      "location steps, indexed vs full enumeration (ms, best of " +
      std::to_string(kRepeats) + ")");
  steps.SetHeader({"topology", "query", "results", "indexed ms", "scan ms",
                   "speedup", "agree"});
  TablePrinter gets("point gets on one store (" +
                    std::to_string(kPointGets) + " lookups each)");
  gets.SetHeader({"topology", "load", "records", "hit ms", "miss ms",
                  "Bloom veto %"});

  for (const TopologyCase& tc : kCases) {
    std::string suffix = std::string("_") + tc.name;
    bool is_uniform = std::string(tc.name) == "uniform";
    std::unique_ptr<Fixture> local;
    if (!is_uniform) local = std::make_unique<Fixture>(tc.name);
    Fixture& fixture = is_uniform ? UniformFixture() : *local;
    json.Metric("nodes" + suffix,
                static_cast<double>(fixture.scheme.label_count()));
    bool loaded = fixture.load_status.ok();
    if (!loaded) {
      std::printf("%s: store load failed after %llu of %zu records: %s\n",
                  tc.name,
                  static_cast<unsigned long long>(
                      fixture.store->record_count()),
                  fixture.scheme.label_count(),
                  fixture.load_status.ToString().c_str());
    }
    json.Metric("store_load_ok" + suffix, loaded ? 1.0 : 0.0);
    json.Metric("store_records" + suffix,
                static_cast<double>(fixture.store->record_count()));

    // Name-step and descendant-step queries: same evaluator class, with
    // and without the indexes; results must agree exactly.
    for (const char* query : {tc.name_step, tc.descendant}) {
      auto via_index = fixture.indexed->Evaluate(query);
      auto via_scan = fixture.plain->Evaluate(query);
      bool agree = via_index.ok() && via_scan.ok() &&
                   *via_index == *via_scan && !via_index->empty();
      double ms_on =
          TimeMs([&fixture, query]() { (void)fixture.indexed->Evaluate(query); });
      double ms_off =
          TimeMs([&fixture, query]() { (void)fixture.plain->Evaluate(query); });
      // A disagreement zeroes the reported speedup so the CI floor fails
      // loudly instead of shipping a fast wrong answer.
      double speedup = agree && ms_on > 0 ? ms_off / ms_on : 0.0;
      bool is_descendant = query == tc.descendant;
      std::string metric =
          std::string(is_descendant ? "descendant" : "name_step") + suffix;
      json.Metric(metric + "_ms_indexed", ms_on, "ms");
      json.Metric(metric + "_ms_scan", ms_off, "ms");
      json.Metric(metric + "_speedup", speedup, "x");
      steps.AddRow({tc.name, query,
                    std::to_string(via_index.ok() ? via_index->size() : 0),
                    TablePrinter::FormatDouble(ms_on, 3),
                    TablePrinter::FormatDouble(ms_off, 3),
                    TablePrinter::FormatDouble(speedup), agree ? "yes" : "NO"});
    }

    // A partially loaded store would time lookups against missing data.
    if (!loaded) {
      gets.AddRow({tc.name, "FAILED",
                   std::to_string(fixture.store->record_count()), "-", "-",
                   "-"});
      continue;
    }

    // A miss is vetoed when the Bloom filter answers NotFound before the
    // lookup touches a single page.
    size_t vetoed = 0;
    for (const core::Ruid2Id& id : fixture.miss_ids) {
      fixture.store->ResetStats();
      auto got = fixture.store->Get(id);
      if (!got.ok() && got.status().IsNotFound() &&
          fixture.store->logical_page_accesses() == 0) {
        ++vetoed;
      }
    }
    double veto_ratio =
        fixture.miss_ids.empty()
            ? 0.0
            : static_cast<double>(vetoed) /
                  static_cast<double>(fixture.miss_ids.size());
    json.Metric("bloom_veto_ratio_miss" + suffix, veto_ratio);

    double hit_ms = TimePointGets(fixture, fixture.hit_ids, true);
    double miss_ms = TimePointGets(fixture, fixture.miss_ids, false);
    json.Metric("point_get_hit_ms" + suffix, hit_ms, "ms");
    json.Metric("point_get_miss_ms" + suffix, miss_ms, "ms");
    gets.AddRow({tc.name, "ok",
                 std::to_string(fixture.store->record_count()),
                 TablePrinter::FormatDouble(hit_ms, 3),
                 TablePrinter::FormatDouble(miss_ms, 3),
                 TablePrinter::FormatDouble(veto_ratio * 100, 2)});
  }

  steps.Print();
  gets.Print();
  json.Write();
}

void BM_DescendantStep(benchmark::State& state, bool use_index) {
  Fixture& fixture = UniformFixture();
  xpath::RuidEvaluator& eval =
      use_index ? *fixture.indexed : *fixture.plain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate("//t3"));
  }
}
BENCHMARK_CAPTURE(BM_DescendantStep, indexed, true);
BENCHMARK_CAPTURE(BM_DescendantStep, full_scan, false);

void BM_PointGetMiss(benchmark::State& state) {
  Fixture& fixture = UniformFixture();
  if (!fixture.load_status.ok()) {
    state.SkipWithError(fixture.load_status.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    for (const core::Ruid2Id& id : fixture.miss_ids) {
      benchmark::DoNotOptimize(fixture.store->Get(id));
    }
  }
}
BENCHMARK(BM_PointGetMiss);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::IndexTables)
