#include "core/ruid2.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>

#include "core/ruidm.h"
#include "scheme/uid.h"
#include "testutil.h"
#include "xml/generator.h"
#include "xml/stats.h"

namespace ruidx {
namespace core {
namespace {

PartitionOptions SmallAreas() {
  PartitionOptions options;
  options.max_area_nodes = 8;
  options.max_area_depth = 2;
  return options;
}

TEST(Ruid2SchemeTest, RootIsOneOneTrue) {
  auto doc = testing::MustParse("<a><b/><c/></a>");
  Ruid2Scheme scheme;
  scheme.Build(doc->root());
  EXPECT_EQ(scheme.label(doc->root()), Ruid2RootId());
}

TEST(Ruid2SchemeTest, SingleNodeDocument) {
  auto doc = testing::MustParse("<a/>");
  Ruid2Scheme scheme;
  scheme.Build(doc->root());
  EXPECT_EQ(scheme.label(doc->root()), Ruid2RootId());
  EXPECT_EQ(scheme.ktable().size(), 1u);
  EXPECT_FALSE(scheme.Parent(Ruid2RootId()).ok());
}

TEST(Ruid2SchemeTest, IdsAreUniqueAndIndexed) {
  auto doc = xml::GenerateUniformTree(300, 3);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  std::unordered_set<std::string> seen;
  for (xml::Node* n : testing::AllNodes(doc->root())) {
    const Ruid2Id& id = scheme.label(n);
    EXPECT_TRUE(seen.insert(id.ToString()).second) << id.ToString();
    EXPECT_EQ(scheme.NodeById(id), n);
  }
  EXPECT_EQ(scheme.label_count(), 300u);
}

TEST(Ruid2SchemeTest, ParentMatchesDomEverywhere) {
  xml::RandomTreeConfig config;
  config.node_budget = 400;
  config.max_fanout = 5;
  config.seed = 12;
  auto doc = xml::GenerateRandomTree(config);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  for (xml::Node* n : testing::AllNodes(doc->root())) {
    if (n == doc->root()) {
      EXPECT_FALSE(scheme.Parent(scheme.label(n)).ok());
      continue;
    }
    auto p = scheme.Parent(scheme.label(n));
    ASSERT_TRUE(p.ok()) << scheme.label(n).ToString();
    EXPECT_EQ(*p, scheme.label(n->parent()))
        << "child " << scheme.label(n).ToString();
  }
}

TEST(Ruid2SchemeTest, AncestorsMatchDomChain) {
  auto doc = xml::GenerateUniformTree(200, 4);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  for (xml::Node* n : testing::AllNodes(doc->root())) {
    std::vector<Ruid2Id> got = scheme.Ancestors(scheme.label(n));
    std::vector<xml::Node*> expected = testing::DomAncestors(n);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], scheme.label(expected[i]));
    }
    EXPECT_EQ(scheme.DepthOf(scheme.label(n)), expected.size());
  }
}

TEST(Ruid2SchemeTest, KTableHasOneRowPerArea) {
  auto doc = xml::GenerateUniformTree(300, 3);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  EXPECT_EQ(scheme.ktable().size(), scheme.partition().areas.size());
  // Global state is small — it must fit comfortably in memory (Sec. 2.1).
  EXPECT_LT(scheme.GlobalStateBytes(), 64u * 1024u);
}

TEST(Ruid2SchemeTest, KappaBoundedBySourceFanout) {
  // With the Sec. 2.3 adjustment on (the default), κ never exceeds the
  // source tree's fan-out.
  for (uint64_t seed : {1u, 2u, 3u}) {
    xml::RandomTreeConfig config;
    config.node_budget = 500;
    config.max_fanout = 4;
    config.seed = seed;
    auto doc = xml::GenerateRandomTree(config);
    Ruid2Scheme scheme(SmallAreas());
    scheme.Build(doc->root());
    EXPECT_LE(scheme.kappa(), xml::ComputeStats(doc->root()).max_fanout);
  }
}

TEST(Ruid2SchemeTest, AreaRootFlagsMatchPartition) {
  auto doc = xml::GenerateUniformTree(250, 3);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  const Partition& partition = scheme.partition();
  for (xml::Node* n : testing::AllNodes(doc->root())) {
    EXPECT_EQ(scheme.label(n).is_area_root, partition.IsAreaRoot(n));
  }
}

TEST(Ruid2SchemeTest, LocalIndicesStayCompact) {
  // Sec. 3.1: local enumeration trees fit their areas, so the identifier
  // components stay small even when a flat UID would explode.
  xml::DeepTreeConfig config;
  config.depth = 60;
  config.siblings_per_level = 3;
  auto doc = xml::GenerateDeepTree(config);

  scheme::UidScheme uid;
  uid.Build(doc->root());
  ASSERT_GT(uid.max_label().BitWidth(), 64);  // flat UID overflows

  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  for (xml::Node* n : testing::AllNodes(doc->root())) {
    EXPECT_LE(scheme.label(n).local.BitWidth(), 64)
        << scheme.label(n).ToString();
  }
}

TEST(Ruid2SchemeTest, IsParentIsAncestorViaLabels) {
  auto doc = xml::GenerateDblpLike(40);
  Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  auto nodes = testing::AllNodes(doc->root());
  for (size_t i = 0; i < nodes.size(); i += 5) {
    for (size_t j = 0; j < nodes.size(); j += 7) {
      EXPECT_EQ(scheme.IsAncestor(nodes[i], nodes[j]),
                nodes[j]->HasAncestor(nodes[i]));
    }
  }
}

TEST(Ruid2SchemeTest, VirtualIdsResolveToNull) {
  auto doc = testing::MustParse("<a><b/></a>");
  Ruid2Scheme scheme;
  scheme.Build(doc->root());
  EXPECT_EQ(scheme.NodeById(Ruid2Id{BigUint(1), BigUint(999), false}),
            nullptr);
}

std::unique_ptr<xml::Document> RebuildDoc(const std::string& topology) {
  if (topology == "dblp") return xml::GenerateDblpLike(400);
  if (topology == "random") {
    xml::RandomTreeConfig config;
    config.node_budget = 3000;
    config.max_fanout = 6;
    config.seed = 99;
    return xml::GenerateRandomTree(config);
  }
  if (topology == "deep") {
    xml::DeepTreeConfig config;
    config.depth = 60;
    config.siblings_per_level = 3;
    return xml::GenerateDeepTree(config);
  }
  return xml::GenerateUniformTree(2000, 4);
}

TEST(Ruid2SchemeTest, RebuildIsIdentical) {
  // Build labels one area at a time; a second Build on the same object and
  // a Build on a fresh one must reproduce every identifier and every K row.
  PartitionOptions options;
  options.max_area_nodes = 24;
  options.max_area_depth = 3;
  for (const char* topology : {"uniform", "random", "deep", "dblp"}) {
    SCOPED_TRACE(topology);
    auto doc = RebuildDoc(topology);
    auto nodes = testing::AllNodes(doc->root());

    Ruid2Scheme first(options);
    first.Build(doc->root());
    std::vector<Ruid2Id> ids;
    for (xml::Node* n : nodes) ids.push_back(first.label(n));
    const std::vector<KRow> rows = first.ktable().rows();
    const uint64_t kappa = first.kappa();

    Ruid2Scheme fresh(options);
    fresh.Build(doc->root());
    first.Build(doc->root());
    for (const Ruid2Scheme* scheme : {&first, &fresh}) {
      ASSERT_EQ(scheme->kappa(), kappa);
      ASSERT_EQ(scheme->label_count(), nodes.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_EQ(scheme->label(nodes[i]), ids[i])
            << "node " << i << " <" << nodes[i]->name() << ">";
      }
      ASSERT_EQ(scheme->ktable().rows(), rows);
      Status valid = scheme->Validate(doc->root());
      ASSERT_TRUE(valid.ok()) << valid.ToString();
    }

    RuidMScheme multi_first(3, options);
    ASSERT_TRUE(multi_first.Build(doc->root()).ok());
    std::vector<RuidMId> multi_ids;
    for (xml::Node* n : nodes) multi_ids.push_back(multi_first.IdOf(n));
    RuidMScheme multi_fresh(3, options);
    ASSERT_TRUE(multi_fresh.Build(doc->root()).ok());
    ASSERT_TRUE(multi_first.Build(doc->root()).ok());
    for (const RuidMScheme* scheme : {&multi_first, &multi_fresh}) {
      ASSERT_EQ(scheme->id_count(), nodes.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_EQ(scheme->IdOf(nodes[i]), multi_ids[i])
            << "node " << i << " <" << nodes[i]->name() << ">";
        if (nodes[i]->parent() == nullptr || i == 0) continue;
        auto parent = scheme->Parent(multi_ids[i]);
        ASSERT_TRUE(parent.ok()) << parent.status().ToString();
        ASSERT_EQ(*parent, scheme->IdOf(nodes[i]->parent()));
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace ruidx
