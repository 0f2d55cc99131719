// Index-seeded steps as one document-order merge: the name-index route of
// RuidEvaluator (descendant, ancestor and their -or-self forms as
// semi-joins, preceding/following reduced to one context node) must return
// exactly what DOM navigation and the navigating ruid evaluator return.
// Seeded random documents with few tag names make the names recurse
// (`//t0//t0`, `//t0/ancestor::t0`), and the semi-joins are also checked
// directly on dense recursion, on both identifier representations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/packed_ruid2_id.h"
#include "core/ruid2.h"
#include "testutil.h"
#include "xml/generator.h"
#include "xpath/dom_eval.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"
#include "xpath/ruid_eval.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace xpath {
namespace {

/// Restores the process-wide packed fast-path toggle however a test exits.
class ScopedFastPath {
 public:
  explicit ScopedFastPath(bool enabled)
      : saved_(core::PackedFastPathEnabled()) {
    core::SetPackedFastPathEnabled(enabled);
  }
  ~ScopedFastPath() { core::SetPackedFastPathEnabled(saved_); }

 private:
  bool saved_;
};

core::PartitionOptions SmallAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 12;
  options.max_area_depth = 3;
  return options;
}

/// A random tree of `nodes` elements over `alphabet` tag names t0, t1,
/// ...; a high depth bias nests equal names inside each other.
std::unique_ptr<xml::Document> RandomDoc(uint64_t seed, uint64_t nodes,
                                         uint32_t alphabet, double depth_bias) {
  xml::RandomTreeConfig config;
  config.node_budget = nodes;
  config.max_fanout = 4;
  config.depth_bias = depth_bias;
  config.tag_alphabet = alphabet;
  config.text_probability = 0.2;
  config.seed = seed;
  return xml::GenerateRandomTree(config);
}

const char* const kMergePaths[] = {
    "//t0//t0",
    "//t0//t1",
    "//t0/descendant-or-self::t0",
    "//t1/descendant-or-self::t0",
    "//t0/ancestor::t0",
    "//t1/ancestor::t0",
    "//t0/ancestor-or-self::t0",
    "//t1/ancestor-or-self::t1",
    "//t0/preceding::t1",
    "//t0/following::t1",
    "//t0/following::t0",
    "//t0/..//t1",                 // navigated, unsorted context
    "//t1/../ancestor::t0",        // unsorted context on the ancestor side
    "//t1/../preceding::t0",       // unsorted context, max C reduction
    "//t1/../following::t0",       // unsorted context, c* reduction
    "//t0[t1]//t0",                // predicate on the context step
    "//t0//t1[t0]",                // predicate on the merged step
    "//t0//zz",                    // empty postings
    "//t0/ancestor::zz",
    "//t0/ancestor-or-self::zz",
    "//t0/descendant::t0/ancestor::t1",
};

void ExpectAgreement(xml::Document* doc, const core::Ruid2Scheme& scheme,
                     const std::string& label) {
  NameIndex index(doc->root());
  DomEvaluator dom(doc);
  RuidEvaluator navigating(doc, &scheme);
  RuidEvaluator indexed(doc, &scheme);
  indexed.SetNameIndex(&index);
  for (const char* path : kMergePaths) {
    auto expected = dom.Evaluate(path);
    ASSERT_TRUE(expected.ok()) << path << ": " << expected.status().ToString();
    auto navigated = navigating.Evaluate(path);
    ASSERT_TRUE(navigated.ok()) << path;
    indexed.ResetCounters();
    auto merged = indexed.Evaluate(path);
    ASSERT_TRUE(merged.ok()) << path;
    EXPECT_EQ(*navigated, *expected) << path << " navigating, " << label;
    EXPECT_EQ(*merged, *expected) << path << " via index, " << label;
    // `//t0` from the document node always takes the index route.
    EXPECT_GE(indexed.route_counts().index_merge, 1u) << path;
  }
}

TEST(IndexMergeTest, RandomDocumentsAgreeWithNavigation) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Twelve names keep each posting list near 1/12 of the document, so
    // descendant steps pass the merge's linear pricing; the depth bias
    // still nests equal names.
    auto doc = RandomDoc(seed, 400, 12, 0.6);
    core::Ruid2Scheme scheme(SmallAreas());
    scheme.Build(doc->root());
    ExpectAgreement(doc.get(), scheme, "random seed " + std::to_string(seed));
  }
}

TEST(IndexMergeTest, RecursiveNameDocumentsAgreeWithNavigation) {
  for (uint64_t seed = 100; seed < 104; ++seed) {
    // Two names: descendant steps fall back to navigation by pricing,
    // ancestor/preceding/following steps still merge. Navigating
    // preceding/following is quadratic, hence the smaller documents.
    auto doc = RandomDoc(seed, 200, 2, 0.8);
    core::Ruid2Scheme scheme(SmallAreas());
    scheme.Build(doc->root());
    ExpectAgreement(doc.get(), scheme,
                    "recursive seed " + std::to_string(seed));
  }
}

TEST(IndexMergeTest, BigUintChainsAgreeWithNavigation) {
  ScopedFastPath off(false);
  auto doc = RandomDoc(7, 400, 6, 0.7);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  ExpectAgreement(doc.get(), scheme, "BigUint chains");
}

/// Ground truth for the semi-joins: DOM pointer ancestry, document order
/// from the name postings.
std::vector<xml::Node*> DomDescendantSemiJoin(
    const std::vector<xml::Node*>& context,
    const std::vector<xml::Node*>& candidates, bool or_self) {
  std::vector<xml::Node*> out;
  for (xml::Node* x : candidates) {
    for (xml::Node* c : context) {
      if ((or_self && x == c) || x->HasAncestor(c)) {
        out.push_back(x);
        break;
      }
    }
  }
  return out;
}

std::vector<xml::Node*> DomAncestorSemiJoin(
    const std::vector<xml::Node*>& candidates,
    const std::vector<xml::Node*>& context, bool or_self) {
  std::vector<xml::Node*> out;
  for (xml::Node* x : candidates) {
    for (xml::Node* c : context) {
      if ((or_self && x == c) || c->HasAncestor(x)) {
        out.push_back(x);
        break;
      }
    }
  }
  return out;
}

TEST(IndexMergeTest, SemiJoinsMatchDomOnDenseRecursion) {
  for (bool packed : {true, false}) {
    ScopedFastPath fast_path(packed);
    for (uint64_t seed = 200; seed < 208; ++seed) {
      auto doc = RandomDoc(seed, 400, 2, 0.8);
      core::Ruid2Scheme scheme(SmallAreas());
      scheme.Build(doc->root());
      NameIndex index(doc->root());
      for (const char* a : {"t0", "t1", "zz"}) {
        for (const char* b : {"t0", "t1", "zz"}) {
          const std::vector<xml::Node*>& as = index.Lookup(a);
          const std::vector<xml::Node*>& bs = index.Lookup(b);
          for (bool or_self : {false, true}) {
            std::string what = std::string(a) + "/" + b + " seed " +
                               std::to_string(seed) +
                               (or_self ? " or-self" : "") +
                               (packed ? " packed" : " BigUint");
            EXPECT_EQ(SemiJoinDescendantsRuid(scheme, as, bs, or_self),
                      DomDescendantSemiJoin(as, bs, or_self))
                << "descendants " << what;
            EXPECT_EQ(SemiJoinAncestorsRuid(scheme, as, bs, or_self),
                      DomAncestorSemiJoin(as, bs, or_self))
                << "ancestors " << what;
          }
        }
      }
    }
  }
}

TEST(IndexMergeTest, SemiJoinsAcceptUnsortedInput) {
  auto doc = ruidx::testing::MustParse(
      "<a><a><b/><a><b/></a></a><b/><c><a/></c></a>");
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  NameIndex index(doc->root());
  std::vector<xml::Node*> as = index.Lookup("a");
  std::vector<xml::Node*> bs = index.Lookup("b");
  std::vector<xml::Node*> as_reversed(as.rbegin(), as.rend());
  std::vector<xml::Node*> bs_reversed(bs.rbegin(), bs.rend());
  // Output is in document order whatever the input order.
  EXPECT_EQ(SemiJoinDescendantsRuid(scheme, as_reversed, bs_reversed, false),
            DomDescendantSemiJoin(as, bs, false));
  EXPECT_EQ(SemiJoinAncestorsRuid(scheme, as_reversed, bs_reversed, false),
            DomAncestorSemiJoin(as, bs, false));
  // Nested context emits each candidate once.
  EXPECT_EQ(SemiJoinDescendantsRuid(scheme, as, as, false).size(), 3u);
  EXPECT_EQ(SemiJoinAncestorsRuid(scheme, as, as, true).size(), as.size());
}

TEST(IndexMergeTest, XmarkOpenAuctionBidderTakesTheMerge) {
  xml::XmarkConfig config;
  auto doc = xml::GenerateXmarkLike(config);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  NameIndex index(doc->root());
  size_t auctions = index.Lookup("open_auction").size();
  size_t bidders = index.Lookup("bidder").size();
  ASSERT_GT(auctions, 0u);
  ASSERT_GT(bidders, 0u);
  // The merge's pricing admits the step on this document.
  ASSERT_LE(auctions + bidders, scheme.label_count() / 4);

  RuidEvaluator indexed(doc.get(), &scheme);
  indexed.SetNameIndex(&index);
  auto merged = indexed.Evaluate("//open_auction//bidder");
  ASSERT_TRUE(merged.ok());
  const RuidEvaluator::RouteCounts& routes = indexed.route_counts();
  EXPECT_EQ(routes.index_merge, 2u);
  EXPECT_EQ(routes.navigate, 0u);
  EXPECT_EQ(routes.path_index_chain, 0u);
  EXPECT_EQ(routes.child_chain_backwards, 0u);
  EXPECT_LE(indexed.ids_generated(), auctions + bidders);

  DomEvaluator dom(doc.get());
  auto expected = dom.Evaluate("//open_auction//bidder");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*merged, *expected);
  EXPECT_EQ(merged->size(), bidders);  // every bidder sits in an auction

  indexed.ResetCounters();
  EXPECT_EQ(indexed.route_counts().index_merge, 0u);
  EXPECT_EQ(indexed.ids_generated(), 0u);
}

TEST(IndexMergeTest, RouteCountsNameEveryRoute) {
  xml::XmarkConfig config;
  config.items = 10;
  config.people = 5;
  config.open_auctions = 4;
  auto doc = xml::GenerateXmarkLike(config);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  NameIndex index(doc->root());
  PathIndex paths(doc->root());
  RuidEvaluator eval(doc.get(), &scheme);
  eval.SetNameIndex(&index);

  ASSERT_TRUE(eval.Evaluate("/site/*/person").ok());
  EXPECT_EQ(eval.route_counts().child_chain_backwards, 3u);
  eval.SetPathIndex(&paths);
  ASSERT_TRUE(eval.Evaluate("/site/people/person").ok());
  EXPECT_EQ(eval.route_counts().path_index_chain, 3u);
  ASSERT_TRUE(eval.Evaluate("//person/name").ok());
  EXPECT_EQ(eval.route_counts().index_merge, 1u);
  EXPECT_EQ(eval.route_counts().navigate, 1u);
}

}  // namespace
}  // namespace xpath
}  // namespace ruidx
