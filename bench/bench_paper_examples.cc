// E1/E2/E3 — regenerates the paper's worked examples as output:
//   Fig. 1:  original-UID renumbering after a node insertion (exact ids).
//   Fig. 4/5: a 2-level ruid numbering with its table K.
//   Example 2: the three rparent() traces, checked against the paper's
//              stated results.
#include "bench_common.h"
#include "core/ruid2.h"
#include "scheme/uid.h"

namespace ruidx {
namespace bench {
namespace {

/// A DOM edit the figures depend on; a failure ends the bench non-zero.
void MustEdit(const Status& st, const char* what) {
  if (!st.ok()) FailBench(what, st);
}

void Fig1() {
  Banner("E1: Fig. 1", "node insertion renumbering in the original UID");
  auto doc = std::make_unique<xml::Document>();
  xml::Node* root = doc->CreateElement("n1");
  MustEdit(doc->AppendChild(doc->document_node(), root), "append root");
  auto add = [&](xml::Node* p, const char* name) {
    xml::Node* n = doc->CreateElement(name);
    MustEdit(doc->AppendChild(p, n), "append child");
    return n;
  };
  xml::Node* n2 = add(root, "n2");
  xml::Node* n3 = add(root, "n3");
  xml::Node* n8 = add(n3, "n8");
  xml::Node* n9 = add(n3, "n9");
  xml::Node* n23 = add(n8, "n23");
  xml::Node* n26 = add(n9, "n26");
  xml::Node* n27 = add(n9, "n27");
  (void)n2;

  scheme::UidScheme uid(3);
  uid.Build(root);
  xml::Node* fig1_nodes[] = {root, n2, n3, n8, n9, n23, n26, n27};

  TablePrinter before("Fig. 1(a): UIDs before insertion (k = 3)");
  before.SetHeader({"node", "UID"});
  for (xml::Node* n : fig1_nodes) {
    before.AddRow({n->name(), uid.LabelString(n)});
  }
  before.Print();

  xml::Node* inserted = doc->CreateElement("inserted");
  MustEdit(doc->InsertChild(root, 1, inserted), "insert child");
  uint64_t changed = uid.RelabelAndCount(root);

  TablePrinter after("Fig. 1(b): UIDs after inserting between nodes 2 and 3");
  after.SetHeader({"node", "UID", "paper says"});
  const char* expected[] = {"1", "2", "4", "11", "12", "32", "35", "36"};
  int i = 0;
  bool all_match = true;
  for (xml::Node* n : fig1_nodes) {
    std::string got = uid.LabelString(n);
    all_match &= got == expected[i];
    after.AddRow({n->name(), got, expected[i++]});
  }
  after.AddRow({"inserted", uid.LabelString(inserted), "3"});
  all_match &= uid.LabelString(inserted) == "3";
  after.Print();
  std::printf("identifiers changed: %llu (paper: 6)  [%s]\n",
              static_cast<unsigned long long>(changed),
              (all_match && changed == 6) ? "MATCH" : "MISMATCH");
}

void Fig4And5() {
  Banner("E2: Figs. 4-5", "a 2-level ruid numbering with its table K");
  // A document whose partition yields several areas, in the spirit of the
  // paper's example tree.
  auto doc = MakeTopology("uniform", 40);
  core::PartitionOptions options;
  options.max_area_nodes = 6;
  options.max_area_depth = 2;
  core::Ruid2Scheme scheme(options);
  scheme.Build(doc->root());

  std::printf("kappa = %llu, areas = %zu\n",
              static_cast<unsigned long long>(scheme.kappa()),
              scheme.partition().areas.size());
  TablePrinter ids("2-level ruid identifiers (Fig. 4 analogue)");
  ids.SetHeader({"node (preorder)", "(g, l, r)"});
  int idx = 0;
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int depth) {
    std::string name(static_cast<size_t>(depth), '.');
    name += n->name() + "#" + std::to_string(idx++);
    ids.AddRow({name, scheme.label(n).ToString()});
    return true;
  });
  ids.Print();

  TablePrinter ktable("table K (Fig. 5 analogue)");
  ktable.SetHeader({"Global index", "Local index", "Local fan-out"});
  for (const auto& row : scheme.ktable().rows()) {
    ktable.AddRow({row.global.ToDecimalString(),
                   row.root_local.ToDecimalString(),
                   std::to_string(row.fanout)});
  }
  ktable.Print();
}

void Example2() {
  Banner("E3: Example 2", "the three rparent() traces of Sec. 2.2");
  core::KTable k;
  k.Upsert({BigUint(1), BigUint(1), 3});
  k.Upsert({BigUint(2), BigUint(2), 2});
  k.Upsert({BigUint(3), BigUint(3), 3});
  k.Upsert({BigUint(10), BigUint(9), 3});
  const uint64_t kappa = 4;

  struct Case {
    core::Ruid2Id child;
    const char* expected;
  };
  Case cases[] = {
      {{BigUint(2), BigUint(7), false}, "(2, 3, false)"},
      {{BigUint(10), BigUint(9), true}, "(3, 3, false)"},
      {{BigUint(3), BigUint(3), false}, "(3, 3, true)"},
  };
  TablePrinter table("rparent() on the paper's table K (kappa = 4)");
  table.SetHeader({"child id", "rparent", "paper says", "verdict"});
  for (const Case& c : cases) {
    auto parent = core::RuidParent(c.child, kappa, k);
    std::string got = parent.ok() ? parent->ToString() : parent.status().ToString();
    table.AddRow({c.child.ToString(), got, c.expected,
                  got == c.expected ? "MATCH" : "MISMATCH"});
  }
  table.Print();
}

void PrintTables() {
  Fig1();
  Fig4And5();
  Example2();
}

void BM_Fig1Relabel(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto doc = std::make_unique<xml::Document>();
    xml::Node* root = doc->CreateElement("r");
    MustEdit(doc->AppendChild(doc->document_node(), root), "append root");
    for (int i = 0; i < 3; ++i) {
      MustEdit(doc->AppendChild(root, doc->CreateElement("c")),
               "append child");
    }
    scheme::UidScheme uid(3);
    uid.Build(root);
    state.ResumeTiming();
    MustEdit(doc->InsertChild(root, 1, doc->CreateElement("x")),
             "insert child");
    benchmark::DoNotOptimize(uid.RelabelAndCount(root));
  }
}
BENCHMARK(BM_Fig1Relabel);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
