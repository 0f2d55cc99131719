#include "corpus.h"

#include <algorithm>

#include "xml/generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/dom_eval.h"
#include "xpath/structural_join.h"

namespace perfbench {

namespace xml = ruidx::xml;
namespace xpath = ruidx::xpath;

namespace {

// About 21k nodes and 0.36 MB of XML; its store is about 4.5 MB (see
// README.md for the sizing runs).
constexpr xml::XmarkConfig kShape = {.items = 1000,
                                     .people = 750,
                                     .open_auctions = 500,
                                     .closed_auctions = 500,
                                     .categories = 125};

// A query (or a join pair written "ancestor//descendant") and its weight:
// the share of its class's operations it gets in the closed-loop mix.
struct QuerySpec {
  const char* path;
  int weight;
};

// The xpath set. The last query falls back to enumerating descendants and
// costs tens of times more than the rest, so it runs in about 3% of xpath
// operations: enough that p99 lands on it, not so often that it starves the
// other classes. The weights put p50 in the middle of the predicate query's
// latency band, which sits well apart from its neighbours' (about 4x above
// the path-index chains, 2x below the reverse axis). The chains and the
// name-index step take 20-250 us, and one such query's latency ranged
// fivefold within one traced run, so a p50 on one of them is noisy.
const QuerySpec kQueries[] = {
    {"/site/open_auctions/open_auction/bidder/increase", 3},  // path index
    {"//person", 3},                                    // name-index step
    {"/site/people/person[watches]/name", 12},          // predicate
    {"//bidder/preceding-sibling::initial", 9},         // reverse axis
    {"/site/closed_auctions/closed_auction/price", 3},  // path index
    {"//open_auction//bidder", 1},                      // enumeration
};

// Join pairs of mixed selectivity, weighted like the query set: one-to-many,
// one-to-one and recursive pairs share the mix equally, and a many-to-many
// pair costing several times more runs in about 3% of joins, so p99 lands
// on it. The equally weighted pairs have seed-independent input sizes
// (except the recursive one, the cheapest), which keeps p50 in one band.
const QuerySpec kJoinPairs[] = {
    {"category//category", 6},
    {"open_auctions//itemref", 6},
    {"site//closed_auction", 6},
    {"closed_auction//price", 6},
    {"people//person", 6},
    {"open_auction//bidder", 1},
};

std::vector<xml::Node*> ElementsNamed(xml::Node* root,
                                      const std::string& name) {
  std::vector<xml::Node*> out;
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    if (n->is_element() && n->name() == name) out.push_back(n);
    return true;
  });
  return out;
}

}  // namespace

PreorderMap MapPreorder(xml::Document* doc) {
  PreorderMap map(doc->serial_count(), UINT32_MAX);
  uint32_t next = 0;
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
    map[n->serial()] = next++;
    return true;
  });
  return map;
}

Corpus BuildCorpus(uint64_t seed) {
  Corpus c;
  xml::XmarkConfig shape = kShape;
  shape.seed = seed;
  {
    std::unique_ptr<xml::Document> generated = xml::GenerateXmarkLike(shape);
    c.xml = xml::Serialize(generated->document_node());
  }

  auto parsed = xml::Parse(c.xml);
  if (!parsed.ok()) SetupFailure("oracle parse: " + parsed.status().ToString());
  std::unique_ptr<xml::Document> doc = parsed.MoveValueUnsafe();
  PreorderMap pre = MapPreorder(doc.get());
  xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
    ++c.nodes;
    if (n->is_element()) ++c.elements;
    return true;
  });

  xpath::DomEvaluator dom(doc.get());
  for (const QuerySpec& q : kQueries) {
    auto result = dom.Evaluate(q.path);
    if (!result.ok()) {
      SetupFailure(std::string("oracle xpath ") + q.path + ": " +
                   result.status().ToString());
    }
    std::vector<uint32_t> answer;
    for (xml::Node* n : *result) answer.push_back(pre[n->serial()]);
    if (answer.empty()) {
      SetupFailure(std::string("oracle xpath is empty: ") + q.path);
    }
    c.queries.emplace_back(q.path);
    c.query_weights.push_back(q.weight);
    c.query_answers.push_back(std::move(answer));
  }

  for (const QuerySpec& j : kJoinPairs) {
    std::string pair = j.path;
    std::string a = pair.substr(0, pair.find("//"));
    std::string d = pair.substr(pair.find("//") + 2);
    xpath::JoinResult pairs = xpath::StructuralJoinNestedLoop(
        ElementsNamed(doc->root(), a), ElementsNamed(doc->root(), d));
    PairList answer;
    for (const auto& [an, dn] : pairs) {
      answer.emplace_back(pre[an->serial()], pre[dn->serial()]);
    }
    std::sort(answer.begin(), answer.end());
    if (answer.empty()) SetupFailure("oracle join is empty: " + pair);
    c.join_pairs.emplace_back(a, d);
    c.join_weights.push_back(j.weight);
    c.join_answers.push_back(std::move(answer));
  }
  return c;
}

}  // namespace perfbench
