// E9 — parent identifier computation (Sec. 5, observation 2): rparent() is
// "more complicated than the one in the original UID", but both run
// entirely in main memory, so "the distinction is not significant".
// Measures per-operation cost of parent and full ancestor-chain recovery,
// and what the per-area ancestor-path cache saves on the rancestor and
// structural-join hot paths.
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "core/ruidm.h"
#include "scheme/dewey.h"
#include "scheme/uid.h"
#include "util/random.h"
#include "xpath/name_index.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 20000;

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  scheme::UidScheme uid;
  core::Ruid2Scheme ruid;
  scheme::DeweyScheme dewey;
  std::vector<xml::Node*> sample;  // non-root nodes, shuffled

  explicit Fixture(const std::string& topology)
      : ruid(DefaultAreas()) {
    doc = MakeTopology(topology, kScale);
    uid.Build(doc->root());
    ruid.Build(doc->root());
    dewey.Build(doc->root());
    Rng rng(7);
    xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
      if (n != doc->root()) sample.push_back(n);
      return true;
    });
    for (size_t i = sample.size(); i > 1; --i) {
      std::swap(sample[i - 1], sample[rng.NextBounded(i)]);
    }
    if (sample.size() > 4096) sample.resize(4096);
  }
};

Fixture& GetFixture(const std::string& topology) {
  static std::map<std::string, std::unique_ptr<Fixture>> cache;
  auto& slot = cache[topology];
  if (!slot) slot = std::make_unique<Fixture>(topology);
  return *slot;
}

/// The ancestor-path cache runs on a larger 'random' document than the
/// parent tables: 100k nodes, a shuffled 4096-node sample.
constexpr uint64_t kCacheScale = 100000;
constexpr int kCacheRepeats = 3;

struct CacheFixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme scheme;
  std::vector<xml::Node*> sample;  // non-root nodes, shuffled

  CacheFixture() : scheme(DefaultAreas()) {
    doc = MakeTopology("random", kCacheScale);
    scheme.Build(doc->root());
    Rng rng(13);
    xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
      if (n != doc->root()) sample.push_back(n);
      return true;
    });
    for (size_t i = sample.size(); i > 1; --i) {
      std::swap(sample[i - 1], sample[rng.NextBounded(i)]);
    }
    if (sample.size() > 4096) sample.resize(4096);
  }
};

CacheFixture& GetCacheFixture() {
  static CacheFixture* fixture = new CacheFixture();
  return *fixture;
}

/// Wall-clock milliseconds of the best of kCacheRepeats runs of fn().
template <typename Fn>
double BestMs(Fn&& fn) {
  double best = 0;
  for (int r = 0; r < kCacheRepeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// rancestor over the sample and a t1//t2 structural join, each with the
/// ancestor-path cache off and on.
void AncestorCacheTable(BenchJsonWriter* json) {
  CacheFixture& fixture = GetCacheFixture();
  xml::Node* root = fixture.doc->root();
  std::printf("ancestor cache: 'random' topology, %zu labeled nodes, %zu "
              "areas\n",
              fixture.scheme.label_count(),
              fixture.scheme.partition().areas.size());
  core::AncestorPathCache& cache = fixture.scheme.ancestor_cache();
  cache.set_enabled(false);
  double uncached_ms = BestMs([&] {
    for (xml::Node* n : fixture.sample) {
      benchmark::DoNotOptimize(fixture.scheme.Ancestors(fixture.scheme.label(n)));
    }
  });
  cache.set_enabled(true);
  for (xml::Node* n : fixture.sample) {  // warm the per-area chains
    (void)fixture.scheme.Ancestors(fixture.scheme.label(n));
  }
  double cached_ms = BestMs([&] {
    for (xml::Node* n : fixture.sample) {
      benchmark::DoNotOptimize(fixture.scheme.Ancestors(fixture.scheme.label(n)));
    }
  });

  xpath::NameIndex index(root);
  std::vector<xml::Node*> anc = index.Lookup("t1");
  std::vector<xml::Node*> desc = index.Lookup("t2");
  cache.set_enabled(false);
  double join_uncached_ms = BestMs([&] {
    benchmark::DoNotOptimize(
        xpath::StructuralJoinRuid(fixture.scheme, anc, desc));
  });
  cache.set_enabled(true);
  (void)xpath::StructuralJoinRuid(fixture.scheme, anc, desc);  // warm
  double join_cached_ms = BestMs([&] {
    benchmark::DoNotOptimize(
        xpath::StructuralJoinRuid(fixture.scheme, anc, desc));
  });

  TablePrinter micro("ancestor-path cache (4096-node sample / t1-t2 join)");
  micro.SetHeader({"operation", "uncached ms", "cached ms", "ratio"});
  char ratio1[32], ratio2[32];
  std::snprintf(ratio1, sizeof(ratio1), "%.2fx", uncached_ms / cached_ms);
  std::snprintf(ratio2, sizeof(ratio2), "%.2fx",
                join_uncached_ms / join_cached_ms);
  micro.AddRow({"rancestor chain", std::to_string(uncached_ms),
                std::to_string(cached_ms), ratio1});
  micro.AddRow({"structural join", std::to_string(join_uncached_ms),
                std::to_string(join_cached_ms), ratio2});
  micro.Print();
  std::printf("cache: %zu area chains, %llu hits / %llu misses\n",
              cache.entry_count(),
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));
  json->Metric("ancestors_uncached_ms", uncached_ms, "ms");
  json->Metric("ancestors_cached_ms", cached_ms, "ms");
  json->Metric("ancestors_cache_speedup", uncached_ms / cached_ms, "x");
  json->Metric("join_uncached_ms", join_uncached_ms, "ms");
  json->Metric("join_cached_ms", join_cached_ms, "ms");
  json->Metric("join_cache_speedup", join_uncached_ms / join_cached_ms, "x");
  json->Metric("cache_area_chains", static_cast<double>(cache.entry_count()));
}

void PrintTables() {
  Banner("E9: parent computation",
         "Sec. 5 obs. 2 — rparent vs parent, both in main memory");
  TablePrinter table("state each method needs resident");
  table.SetHeader({"method", "formula / algorithm", "in-memory state"});
  table.AddRow({"uid parent", "(i-2)/k + 1  (formula 1)", "k (8 bytes)"});
  table.AddRow({"ruid rparent", "Fig. 6", "kappa + table K"});
  table.AddRow({"dewey parent", "drop last component", "none"});
  table.Print();
  BenchJsonWriter json("parent");
  for (const char* topology : {"uniform", "deep"}) {
    Fixture& fixture = GetFixture(topology);
    std::printf("'%s': ruid global state = %llu bytes, areas = %zu\n",
                topology,
                static_cast<unsigned long long>(fixture.ruid.GlobalStateBytes()),
                fixture.ruid.partition().areas.size());
    json.Metric(std::string("global_state_bytes_") + topology,
                static_cast<double>(fixture.ruid.GlobalStateBytes()), "bytes");
    json.Metric(std::string("areas_") + topology,
                static_cast<double>(fixture.ruid.partition().areas.size()));
    // Deterministic per-op timing over the fixed sample, for the cross-PR
    // JSON trail (google-benchmark numbers below are interactive-only).
    auto time_ms = [](auto&& fn) {
      auto t0 = std::chrono::steady_clock::now();
      fn();
      auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::milli>(t1 - t0).count();
    };
    double parent_ms = time_ms([&] {
      for (xml::Node* n : fixture.sample) {
        benchmark::DoNotOptimize(fixture.ruid.Parent(fixture.ruid.label(n)));
      }
    });
    double chain_ms = time_ms([&] {
      for (xml::Node* n : fixture.sample) {
        benchmark::DoNotOptimize(fixture.ruid.Ancestors(fixture.ruid.label(n)));
      }
    });
    json.Metric(std::string("rparent_sample_ms_") + topology, parent_ms, "ms");
    json.Metric(std::string("rancestor_sample_ms_") + topology, chain_ms,
                "ms");
  }
  AncestorCacheTable(&json);
  json.Write();
  std::printf("\n(timings below; see EXPERIMENTS.md for discussion)\n");
}

void BM_UidParent(benchmark::State& state, const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    benchmark::DoNotOptimize(
        scheme::UidParent(fixture.uid.label(n), fixture.uid.k()));
  }
}

void BM_RuidParent(benchmark::State& state, const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    auto parent = fixture.ruid.Parent(fixture.ruid.label(n));
    benchmark::DoNotOptimize(parent);
  }
}

void BM_DeweyParent(benchmark::State& state, const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    scheme::DeweyLabel label = fixture.dewey.label(n);
    label.pop_back();
    benchmark::DoNotOptimize(label);
  }
}

void BM_UidAncestorChain(benchmark::State& state, const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    BigUint cur = fixture.uid.label(n);
    while (cur > BigUint(1)) {
      cur = scheme::UidParent(cur, fixture.uid.k());
    }
    benchmark::DoNotOptimize(cur);
  }
}

void BM_RuidAncestorChain(benchmark::State& state,
                          const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    benchmark::DoNotOptimize(fixture.ruid.Ancestors(fixture.ruid.label(n)));
  }
}

void BM_RuidAncestorCheck(benchmark::State& state,
                          const std::string& topology) {
  Fixture& fixture = GetFixture(topology);
  const core::Ruid2Id& root_id = fixture.ruid.label(fixture.doc->root());
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    benchmark::DoNotOptimize(
        fixture.ruid.IsAncestorId(root_id, fixture.ruid.label(n)));
  }
}

void BM_AncestorsCached(benchmark::State& state) {
  CacheFixture& fixture = GetCacheFixture();
  fixture.scheme.ancestor_cache().set_enabled(state.range(0) != 0);
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    benchmark::DoNotOptimize(fixture.scheme.Ancestors(fixture.scheme.label(n)));
  }
  fixture.scheme.ancestor_cache().set_enabled(true);
}
BENCHMARK(BM_AncestorsCached)->Arg(0)->Arg(1);

[[maybe_unused]] int registered = [] {
  for (const char* topology : {"uniform", "deep"}) {
    auto reg = [&](const char* name, auto fn) {
      benchmark::RegisterBenchmark(
          (std::string(name) + "/" + topology).c_str(),
          [fn, topology](benchmark::State& state) { fn(state, topology); });
    };
    reg("BM_UidParent", BM_UidParent);
    reg("BM_RuidParent", BM_RuidParent);
    reg("BM_DeweyParent", BM_DeweyParent);
    reg("BM_UidAncestorChain", BM_UidAncestorChain);
    reg("BM_RuidAncestorChain", BM_RuidAncestorChain);
    reg("BM_RuidAncestorCheck", BM_RuidAncestorCheck);
  }
  return 0;
}();

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
