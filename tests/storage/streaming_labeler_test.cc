// Streaming labeling (Sec. 4 "managing large XML trees"): two SAX passes
// must produce exactly the identifiers a DOM build produces, and the
// resulting store + (kappa, K) blob must answer structural queries offline.
#include "storage/streaming_labeler.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "core/global_state.h"
#include "testutil.h"
#include "xml/generator.h"
#include "xml/sax.h"
#include "xml/serializer.h"

namespace ruidx {
namespace storage {
namespace {

core::PartitionOptions SmallAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 16;
  options.max_area_depth = 3;
  return options;
}

TEST(SaxTest, EventsArriveInDocumentOrder) {
  struct Recorder : xml::SaxHandlerBase {
    std::vector<std::string> events;
    Status StartElement(std::string_view name,
                        const std::vector<xml::SaxAttribute>& attrs) override {
      std::string e = "<" + std::string(name);
      for (const auto& [k, v] : attrs) e += " " + k + "=" + v;
      events.push_back(e + ">");
      return Status::OK();
    }
    Status EndElement(std::string_view name) override {
      events.push_back("</" + std::string(name) + ">");
      return Status::OK();
    }
    Status Text(std::string_view data) override {
      events.push_back("t:" + std::string(data));
      return Status::OK();
    }
    Status Comment(std::string_view data) override {
      events.push_back("c:" + std::string(data));
      return Status::OK();
    }
    Status ProcessingInstruction(std::string_view target,
                                 std::string_view) override {
      events.push_back("pi:" + std::string(target));
      return Status::OK();
    }
  } recorder;
  ASSERT_TRUE(xml::SaxParse("<a x=\"1\">hi<b/><!--c--><?p d?></a>", &recorder)
                  .ok());
  EXPECT_EQ(recorder.events,
            (std::vector<std::string>{"<a x=1>", "t:hi", "<b>", "</b>", "c:c",
                                      "pi:p", "</a>"}));
}

TEST(SaxTest, HandlerErrorsAbortTheParse) {
  struct Bomb : xml::SaxHandlerBase {
    Status Text(std::string_view) override {
      return Status::Internal("boom");
    }
  } bomb;
  Status st = xml::SaxParse("<a>x</a>", &bomb);
  EXPECT_TRUE(st.IsInternal());
}

TEST(StreamingLabelerTest, IdsMatchDomBuildExactly) {
  xml::XmarkConfig config;
  config.items = 30;
  config.people = 20;
  auto doc = xml::GenerateXmarkLike(config);
  std::string text = xml::Serialize(doc->document_node());

  // Reference: regular DOM numbering of the reparsed text.
  auto reparsed = ruidx::testing::MustParse(text);
  core::Ruid2Scheme reference(SmallAreas());
  reference.Build(reparsed->root());

  // Streamed records, in document order.
  std::vector<ElementRecord> records;
  auto stats = StreamLabel(text, SmallAreas(),
                           [&](const ElementRecord& record) {
                             records.push_back(record);
                             return Status::OK();
                           });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto nodes = ruidx::testing::AllNodes(reparsed->root());
  ASSERT_EQ(records.size(), nodes.size());
  EXPECT_EQ(stats->nodes, nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(records[i].id, reference.label(nodes[i])) << i;
    if (nodes[i]->is_element()) {
      EXPECT_EQ(records[i].name, nodes[i]->name()) << i;
    }
  }
}

TEST(StreamingLabelerTest, StreamedStoreMatchesDomBulkLoad) {
  // The two ingest paths of one text must store the same records: the
  // streamed one carries each node's real type (text, comment and PI
  // nodes included), not just its identifier.
  xml::RandomTreeConfig config;
  config.node_budget = 400;
  config.text_probability = 0.3;
  config.seed = 1405;
  auto random = xml::GenerateRandomTree(config);
  for (const std::string& text :
       {std::string("<a x=\"1\">hi<?pi data?><b>t<!--c--><c/></b>"
                    "<!--tail--><d><?q?>u</d></a>"),
        xml::Serialize(random->document_node())}) {
    auto streamed = ElementStore::Create("", 32);
    ASSERT_TRUE(streamed.ok());
    auto stats = StreamLabelToStore(text, SmallAreas(), streamed->get());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    auto doc = ruidx::testing::MustParse(text);
    core::Ruid2Scheme scheme(SmallAreas());
    scheme.Build(doc->root());
    auto loaded = ElementStore::Create("", 32);
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE((*loaded)->BulkLoad(scheme, doc->root()).ok());

    using Row = std::tuple<core::Ruid2Id, uint8_t, std::string>;
    auto rows = [](ElementStore* store) {
      std::map<std::string, Row> out;
      EXPECT_TRUE(store
                      ->ScanAll([&](const BPlusTree::Key&,
                                    const ElementRecord& r) {
                        out.emplace(r.id.ToString(),
                                    Row{r.parent_id, r.node_type, r.name});
                        return true;
                      })
                      .ok());
      return out;
    };
    std::map<std::string, Row> want = rows(loaded->get());
    std::map<std::string, Row> got = rows(streamed->get());
    EXPECT_EQ(got.size(), ruidx::testing::AllNodes(doc->root()).size());
    EXPECT_EQ(got, want);
    std::set<uint8_t> types;
    for (const auto& [id, row] : got) types.insert(std::get<1>(row));
    EXPECT_TRUE(types.contains(static_cast<uint8_t>(xml::NodeType::kText)));
  }
}

TEST(StreamingLabelerTest, StoreAndGlobalStateAnswerOffline) {
  auto doc = xml::GenerateDblpLike(80);
  std::string text = xml::Serialize(doc->document_node());
  auto store = ElementStore::Create("", 32);
  ASSERT_TRUE(store.ok());
  auto stats = StreamLabelToStore(text, SmallAreas(), store->get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ((*store)->record_count(), stats->nodes);

  // Reload only the global state; the source text and DOM are gone now.
  auto state = core::DeserializeGlobalState(stats->global_state);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->kappa, stats->kappa);
  EXPECT_EQ(state->ktable.size(), stats->areas);

  // Walk records' parents purely via rparent over the loaded state: for
  // every area, each stored non-root record's rparent must equal its stored
  // parent pointer.
  uint64_t checked = 0;
  for (const core::KRow& row : state->ktable.rows()) {
    ASSERT_TRUE((*store)
                    ->ScanArea(row.global,
                               [&](const ElementRecord& record) {
                                 if (record.id == core::Ruid2RootId()) {
                                   return true;
                                 }
                                 auto parent = core::RuidParent(
                                     record.id, state->kappa, state->ktable);
                                 EXPECT_TRUE(parent.ok());
                                 if (parent.ok()) {
                                   EXPECT_EQ(*parent, record.parent_id);
                                   ++checked;
                                 }
                                 return true;
                               })
                    .ok());
  }
  EXPECT_GT(checked, stats->nodes / 2);
}

TEST(StreamingLabelerTest, RejectsMalformedInput) {
  auto result = StreamLabel("<a><b></a>", SmallAreas(),
                            [](const ElementRecord&) { return Status::OK(); });
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsParseError());
}

TEST(StreamingLabelerTest, SinkErrorsPropagate) {
  auto result = StreamLabel("<a><b/></a>", SmallAreas(),
                            [](const ElementRecord&) {
                              return Status::CapacityExceeded("full");
                            });
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacityExceeded());
}

TEST(StreamingLabelerTest, ParentPointersAreConsistent) {
  xml::RandomTreeConfig config;
  config.node_budget = 300;
  config.text_probability = 0.3;
  config.seed = 88;
  auto doc = xml::GenerateRandomTree(config);
  std::string text = xml::Serialize(doc->document_node());
  std::vector<ElementRecord> records;
  auto stats = StreamLabel(text, SmallAreas(),
                           [&](const ElementRecord& record) {
                             records.push_back(record);
                             return Status::OK();
                           });
  ASSERT_TRUE(stats.ok());
  // Every parent_id occurs earlier in the stream (document order).
  std::set<std::string> seen;
  for (const ElementRecord& record : records) {
    if (!(record.id == core::Ruid2RootId())) {
      EXPECT_TRUE(seen.contains(record.parent_id.ToString()))
          << record.id.ToString();
    }
    seen.insert(record.id.ToString());
  }
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
