// E10 correctness side: the identifier-based evaluator must return exactly
// the node set of the navigational evaluator for every query shape, on
// every topology. Parameterized sweep: paths x documents.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/ruid2.h"
#include "testutil.h"
#include "xml/generator.h"
#include "xpath/dom_eval.h"
#include "xpath/name_index.h"
#include "xpath/ruid_eval.h"

namespace ruidx {
namespace xpath {
namespace {

struct Param {
  std::string doc_name;
  std::string path;
};

std::unique_ptr<xml::Document> MakeDoc(const std::string& name) {
  if (name == "xmark") {
    xml::XmarkConfig config;
    config.items = 24;
    config.people = 15;
    config.open_auctions = 10;
    config.closed_auctions = 6;
    config.categories = 5;
    return xml::GenerateXmarkLike(config);
  }
  if (name == "dblp") return xml::GenerateDblpLike(25);
  xml::RandomTreeConfig config;
  config.node_budget = 180;
  config.max_fanout = 5;
  config.seed = 4242;
  config.text_probability = 0.3;
  return xml::GenerateRandomTree(config);
}

class XPathEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(XPathEquivalenceTest, RuidMatchesDom) {
  const Param& param = GetParam();
  auto doc = MakeDoc(param.doc_name);

  core::PartitionOptions options;
  options.max_area_nodes = 16;
  options.max_area_depth = 3;
  core::Ruid2Scheme scheme(options);
  scheme.Build(doc->root());

  DomEvaluator dom_eval(doc.get());
  RuidEvaluator ruid_eval(doc.get(), &scheme);
  NameIndex name_index(doc->root());
  RuidEvaluator indexed_eval(doc.get(), &scheme);
  indexed_eval.SetNameIndex(&name_index);

  auto expected = dom_eval.Evaluate(param.path);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto actual = ruid_eval.Evaluate(param.path);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  auto indexed = indexed_eval.Evaluate(param.path);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();

  ASSERT_EQ(actual->size(), expected->size())
      << param.path << " on " << param.doc_name;
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ((*actual)[i], (*expected)[i])
        << param.path << " result " << i << " differs";
  }
  ASSERT_EQ(*indexed, *expected)
      << param.path << " via name index on " << param.doc_name;
}

std::vector<Param> MakeCases() {
  const std::string kPaths[] = {
      "/*",
      "//*",
      "//node()",
      "/site/people/person",
      "//person/name",
      "//person[@id]/@id",
      "//person[2]",
      "//item/ancestor::*",
      "//name/..",
      "//person/descendant::text()",
      "//bidder/preceding-sibling::node()",
      "//bidder/following-sibling::*",
      "//increase/preceding::initial",
      "//initial/following::increase",
      "//person/ancestor-or-self::node()",
      "//category//category",
      "//*[name]/name/text()",
      "descendant::*[@id][1]",
      "//watch/parent::watches/..",
      "//text()",
      "/site/*/person",
      "/site/regions/*/item/name",
      "//name | //item",
      "//bidder | //initial | //increase",
      "/site/people/person/name/text()",
  };
  // Steps the name-index merge answers: nested and unsorted context,
  // ancestor-side joins, and the following reduction. Appended after the
  // cases above so their parameter indices stay put.
  const std::string kMergePaths[] = {
      "//open_auction//bidder",
      "//watch/ancestor::person",
      "//increase/ancestor-or-self::open_auction",
      "//name/..//name",
      "//category/following::category",
  };
  std::vector<Param> cases;
  for (const std::string doc : {"xmark", "dblp", "random"}) {
    for (const std::string& path : kPaths) {
      cases.push_back({doc, path});
    }
  }
  for (const std::string doc : {"xmark", "dblp", "random"}) {
    for (const std::string& path : kMergePaths) {
      cases.push_back({doc, path});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(PathsTimesDocs, XPathEquivalenceTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           std::string name =
                               info.param.doc_name + "_" +
                               std::to_string(info.index);
                           return name;
                         });

}  // namespace
}  // namespace xpath
}  // namespace ruidx
