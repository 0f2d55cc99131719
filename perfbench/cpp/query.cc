// Query phase: one client runs a seeded closed-loop mix over an ingested
// store reopened with the workload's pool.
//   lookup: ElementStore::Get + FetchAncestors on a uniformly random element;
//   join:   xpath::StructuralJoinRuidFromStore on fixed name pairs;
//   xpath:  xpath::ParseUnion + RuidEvaluator::Evaluate with NameIndex and
//           PathIndex over a fixed, weighted query set.
#include <algorithm>

#include "phases.h"
#include "util/random.h"
#include "xpath/name_index.h"
#include "xpath/parser.h"
#include "xpath/path_index.h"
#include "xpath/ruid_eval.h"
#include "xpath/structural_join.h"

namespace perfbench {

namespace core = ruidx::core;
namespace storage = ruidx::storage;
namespace xml = ruidx::xml;
namespace xpath = ruidx::xpath;

namespace {

enum OpClass { kLookup = 0, kJoin = 1, kXpath = 2, kClasses = 3 };
constexpr int kLookupsPerSlot = 8;
const char* const kClassNames[] = {"query.lookup", "query.join",
                                   "query.xpath"};

struct QueryState {
  RunState* s;
  storage::ElementStore* store;
  const core::Ruid2Scheme* scheme;
  xpath::RuidEvaluator* eval;
  PreorderMap pre;
  std::vector<xml::Node*> elements;
  /// False during the warm-up cycle: answers are checked, nothing is
  /// recorded or traced.
  bool record = false;

  std::unique_ptr<OpTrace> Trace(OpClass k) {
    if (!record) return nullptr;
    return MaybeTrace(kClassNames[k], s->query.seq[k]++);
  }
  void Add(OpClass k, bool traced, double us) {
    if (record) s->query.latency_us[k][traced ? 1 : 0].Add(us);
  }
};

void LookupOp(QueryState* q, xml::Node* node) {
  std::unique_ptr<OpTrace> trace = q->Trace(kLookup);
  OpTrace* tr = trace.get();
  const core::Ruid2Id& id = q->scheme->label(node);
  storage::BufferPoolStats before;
  if (tr != nullptr) before = q->store->pool_stats();

  auto t0 = Clock::now();
  Span get_span(tr, "storage.Get");
  auto record = q->store->Get(id);
  get_span.End();
  Span anc_span(tr, "storage.FetchAncestors");
  auto ancestors = q->store->FetchAncestors(*q->scheme, id);
  anc_span.End();
  auto t1 = Clock::now();
  if (tr != nullptr) {
    tr->Close(1);
    storage::BufferPoolStats after = q->store->pool_stats();
    tr->Counter("pages", static_cast<double>((after.hits + after.misses) -
                                             (before.hits + before.misses)));
    tr->Counter("misses", static_cast<double>(after.misses - before.misses));
  }
  bool ok = Ops().Record(record.status(), "ElementStore::Get");
  ok = Ops().Record(ancestors.status(), "ElementStore::FetchAncestors") && ok;
  if (!ok) return;
  q->Add(kLookup, tr != nullptr, MicrosBetween(t0, t1));

  std::string name = record->name;
  if (ShouldCorrupt("get")) name += "~";
  if (name != node->name() ||
      record->node_type != static_cast<uint8_t>(node->type())) {
    WrongAnswer("Get(" + id.ToString() + ") returned " + name +
                ", expected " + node->name());
  }
  size_t i = 0;
  for (xml::Node* a = node->parent(); a != nullptr && !a->is_document();
       a = a->parent(), ++i) {
    if (i >= ancestors->size() || (*ancestors)[i].name != a->name()) {
      WrongAnswer("FetchAncestors(" + id.ToString() + ") disagrees with DOM");
    }
  }
  if (i != ancestors->size()) {
    WrongAnswer("FetchAncestors(" + id.ToString() + ") returned " +
                std::to_string(ancestors->size()) + " records, expected " +
                std::to_string(i));
  }
}

void JoinOp(QueryState* q, size_t pair) {
  std::unique_ptr<OpTrace> trace = q->Trace(kJoin);
  OpTrace* tr = trace.get();
  const auto& [a, d] = q->s->corpus->join_pairs[pair];

  auto t0 = Clock::now();
  Span join_span(tr, "xpath.StructuralJoinRuidFromStore");
  auto joined = xpath::StructuralJoinRuidFromStore(*q->scheme, q->store, a, d);
  join_span.End();
  auto t1 = Clock::now();
  if (!Ops().Record(joined.status(), "StructuralJoinRuidFromStore")) return;
  const double join_us = MicrosBetween(t0, t1);
  q->Add(kJoin, tr != nullptr, join_us);

  if (tr != nullptr) {
    // The two posting scans the join starts with, timed apart: the join's
    // own work is its time minus theirs.
    uint64_t postings = 0;
    auto scan_start = Clock::now();
    for (const std::string& name : {a, d}) {
      Span span(tr, "storage.ScanNameTerm");
      Ops().Record(q->store->ScanNameTerm(name,
                                          [&](const storage::ElementRecord&) {
                                            ++postings;
                                            return true;
                                          }),
                   "ElementStore::ScanNameTerm");
    }
    const double scan_us = MicrosBetween(scan_start, Clock::now());
    tr->Counter("pair", static_cast<double>(pair));
    tr->Counter("postings", static_cast<double>(postings));
    tr->Counter("join_self_us", join_us - scan_us);
  }

  PairList got;
  got.reserve(joined->size());
  for (const auto& [an, dn] : *joined) {
    got.emplace_back(q->pre[an->serial()], q->pre[dn->serial()]);
  }
  std::sort(got.begin(), got.end());
  if (ShouldCorrupt("join")) got.pop_back();
  if (got != q->s->corpus->join_answers[pair]) {
    WrongAnswer("join " + a + "//" + d + " returned " +
                std::to_string(got.size()) + " pairs, oracle has " +
                std::to_string(q->s->corpus->join_answers[pair].size()));
  }
}

void XpathOp(QueryState* q, size_t query) {
  std::unique_ptr<OpTrace> trace = q->Trace(kXpath);
  OpTrace* tr = trace.get();
  const std::string& path = q->s->corpus->queries[query];
  q->eval->ResetCounters();

  auto t0 = Clock::now();
  Span parse_span(tr, "xpath.ParseUnion");
  auto expr = xpath::ParseUnion(path);
  parse_span.End();
  if (!Ops().Record(expr.status(), "xpath::ParseUnion")) return;
  Span eval_span(tr, "xpath.Evaluate");
  auto result = q->eval->Evaluate(*expr);
  eval_span.End();
  auto t1 = Clock::now();
  if (!Ops().Record(result.status(), "RuidEvaluator::Evaluate")) return;
  q->Add(kXpath, tr != nullptr, MicrosBetween(t0, t1));
  if (tr != nullptr) {
    tr->Counter("query", static_cast<double>(query));
    tr->Counter("ids_generated", static_cast<double>(q->eval->ids_generated()));
    tr->Counter("results", static_cast<double>(result->size()));
  }

  std::vector<uint32_t> got;
  got.reserve(result->size());
  for (xml::Node* n : *result) got.push_back(q->pre[n->serial()]);
  if (ShouldCorrupt("xpath")) got.back() ^= 1;
  if (got != q->s->corpus->query_answers[query]) {
    WrongAnswer("xpath " + path + " returned " + std::to_string(got.size()) +
                " nodes, oracle has " +
                std::to_string(q->s->corpus->query_answers[query].size()));
  }
}

}  // namespace

struct QueryPhase::Impl {
  Impl(RunState* run, Ingested* in)
      : s(run),
        store(ReopenStore(in->path, run->spec->pool_pages)),
        name_index(in->doc->root()),
        path_index(in->doc->root()),
        eval(in->doc.get(), in->scheme.get()),
        q{run, store.get(), in->scheme.get(), &eval,
          MapPreorder(in->doc.get()), {}, false},
        rng(Opts().seed * 0x9E3779B97F4A7C15ULL + 11) {
    eval.SetNameIndex(&name_index);
    eval.SetPathIndex(&path_index);
    xml::PreorderTraverse(in->doc->root(), [&](xml::Node* n, int) {
      if (n->is_element()) q.elements.push_back(n);
      return true;
    });
    // One cycle of the mix: the weighted xpath schedule, then a weighted
    // join schedule of the same length shuffled together with
    // kLookupsPerSlot times as many lookups (they are cheap, and their p99
    // is a tail, not a band), each in seeded order. The xpath queries run
    // back to back: they are short and work in memory, and shuffled among
    // joins and cold-pool lookups, which evict their working set from the
    // CPU caches, they ran about 15% slower.
    auto weighted = [](const std::vector<int>& weights) {
      std::vector<size_t> schedule;
      for (size_t i = 0; i < weights.size(); ++i) {
        for (int w = 0; w < weights[i]; ++w) schedule.push_back(i);
      }
      return schedule;
    };
    xpath_cycle = weighted(run->corpus->query_weights);
    join_cycle = weighted(run->corpus->join_weights);
    for (size_t i = 0; i < xpath_cycle.size(); ++i) {
      cycle.push_back(kJoin);
      for (int l = 0; l < kLookupsPerSlot; ++l) cycle.push_back(kLookup);
    }
    // The first cycle warms the pool and the caches and is not recorded.
    Cycle();
    q.record = true;
    hits0 = q.scheme->ancestor_cache().hits();
    misses0 = q.scheme->ancestor_cache().misses();
  }

  ~Impl() {
    s->query.cache_hits +=
        static_cast<double>(q.scheme->ancestor_cache().hits() - hits0);
    s->query.cache_misses +=
        static_cast<double>(q.scheme->ancestor_cache().misses() - misses0);
  }

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
    }
  }

  void Cycle() {
    Shuffle(&cycle);
    Shuffle(&xpath_cycle);
    Shuffle(&join_cycle);
    for (size_t query : xpath_cycle) XpathOp(&q, query);
    size_t next_join = 0;
    for (OpClass op : cycle) {
      if (op == kJoin) {
        JoinOp(&q, join_cycle[next_join++]);
      } else {
        LookupOp(&q, q.elements[rng.NextBounded(q.elements.size())]);
      }
    }
  }

  RunState* s;
  std::unique_ptr<storage::ElementStore> store;
  xpath::NameIndex name_index;
  xpath::PathIndex path_index;
  xpath::RuidEvaluator eval;
  QueryState q;
  ruidx::Rng rng;
  std::vector<size_t> xpath_cycle;
  std::vector<size_t> join_cycle;
  std::vector<OpClass> cycle;  // joins and lookups
  uint64_t hits0 = 0;
  uint64_t misses0 = 0;
};

QueryPhase::QueryPhase(RunState* s, Ingested* in)
    : impl_(std::make_unique<Impl>(s, in)) {}

QueryPhase::~QueryPhase() = default;

void QueryPhase::Run(double budget_s) {
  const auto start = Clock::now();
  do {
    impl_->Cycle();
  } while (MicrosBetween(start, Clock::now()) / 1e6 < budget_s);
}

void ReportQuery(const RunState& s, Report* report) {
  Report& rep = *report;
  const QuerySamples& q = s.query;
  for (int k = 0; k < kClasses; ++k) {
    rep.ContextNum(std::string(kClassNames[k]) + "_samples",
                   static_cast<double>(q.latency_us[k][0].size() +
                                       q.latency_us[k][1].size()));
  }
  if (!Opts().trace) {
    rep.Add("lookup_p50_us", q.latency_us[kLookup][0].Quantile(0.5), "us");
    rep.Add("lookup_p99_us", q.latency_us[kLookup][0].Quantile(0.99),
            "us");
    rep.Add("join_p50_us", q.latency_us[kJoin][0].Quantile(0.5), "us");
    rep.Add("join_p99_us", q.latency_us[kJoin][0].Quantile(0.99),
            "us");
    rep.Add("xpath_p50_us", q.latency_us[kXpath][0].Quantile(0.5), "us");
    rep.Add("xpath_p99_us", q.latency_us[kXpath][0].Quantile(0.99),
            "us");
    return;
  }
  double overhead = 0;
  for (int k = 0; k < kClasses; ++k) {
    overhead += OverheadPct(q.latency_us[k][1],
                            q.latency_us[k][0]) /
                3.0;
  }
  rep.Add("trace.overhead_query_pct", overhead, "%");
  const double lookups = q.cache_hits + q.cache_misses;
  rep.Add("core.ancestor_cache_hit_ratio",
          lookups > 0 ? q.cache_hits / lookups : 0, "ratio");
  rep.Add("storage.get_us", SpanMicros("query.lookup", "storage.Get").Median(),
          "us");
  rep.Add("storage.fetch_ancestors_us",
          SpanMicros("query.lookup", "storage.FetchAncestors").Median(), "us");
  rep.Add("storage.pages_per_lookup",
          CounterPerOp("query.lookup", "pages").Quantile(0.5), "pages");
  rep.Add("storage.misses_per_lookup",
          CounterPerOp("query.lookup", "misses").Mean(),
          "pages");
  rep.Add("storage.posting_scan_us",
          SpanMicros("query.join", "storage.ScanNameTerm").Median(), "us");
  rep.Add("storage.postings_per_join",
          CounterPerOp("query.join", "postings").Median(), "count");
  rep.Add("xpath.join_self_us",
          CounterPerOp("query.join", "join_self_us").Median(), "us");
  rep.Add("xpath.parse_us",
          SpanMicros("query.xpath", "xpath.ParseUnion").Median(), "us");
  rep.Add("xpath.eval_us",
          SpanMicros("query.xpath", "xpath.Evaluate").Median(), "us");
  const double results = CounterPerOp("query.xpath", "results").Sum();
  rep.Add("xpath.ids_per_result",
          results > 0 ? CounterPerOp("query.xpath", "ids_generated").Sum() /
                            results
                      : 0,
          "count");
}

}  // namespace perfbench
