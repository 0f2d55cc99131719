#include "storage/element_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "testutil.h"
#include "xml/generator.h"

namespace ruidx {
namespace storage {
namespace {

core::PartitionOptions SmallAreas() {
  core::PartitionOptions options;
  options.max_area_nodes = 12;
  options.max_area_depth = 3;
  return options;
}

TEST(IdKeyCodecTest, RoundTripAndOrder) {
  core::Ruid2Id a{BigUint(3), BigUint(7), false};
  core::Ruid2Id b{BigUint(3), BigUint(8), false};
  core::Ruid2Id c{BigUint(4), BigUint(1), true};
  auto ka = EncodeIdKey(a);
  auto kb = EncodeIdKey(b);
  auto kc = EncodeIdKey(c);
  ASSERT_TRUE(ka.ok() && kb.ok() && kc.ok());
  EXPECT_EQ(DecodeIdKey(*ka), a);
  EXPECT_EQ(DecodeIdKey(*kc), c);
  // Bytewise order == (global, local) order.
  EXPECT_LT(memcmp(ka->data(), kb->data(), BPlusTree::kKeySize), 0);
  EXPECT_LT(memcmp(kb->data(), kc->data(), BPlusTree::kKeySize), 0);
}

TEST(IdKeyCodecTest, BigComponents) {
  core::Ruid2Id big{BigUint::Pow(BigUint(2), 100), BigUint::Pow(BigUint(3), 60),
                    true};
  auto key = EncodeIdKey(big);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(DecodeIdKey(*key), big);
  core::Ruid2Id too_big{BigUint::Pow(BigUint(2), 129), BigUint(1), false};
  EXPECT_TRUE(EncodeIdKey(too_big).status().IsCapacityExceeded());
}

class ElementStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = xml::GenerateDblpLike(40);
    scheme_ = std::make_unique<core::Ruid2Scheme>(SmallAreas());
    scheme_->Build(doc_->root());
    auto store = ElementStore::Create("", 32);
    ASSERT_TRUE(store.ok());
    store_ = store.MoveValueUnsafe();
    ASSERT_TRUE(store_->BulkLoad(*scheme_, doc_->root()).ok());
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<core::Ruid2Scheme> scheme_;
  std::unique_ptr<ElementStore> store_;
};

TEST_F(ElementStoreTest, BulkLoadStoresEveryNode) {
  EXPECT_EQ(store_->record_count(), scheme_->label_count());
  for (xml::Node* n : ruidx::testing::AllNodes(doc_->root())) {
    auto record = store_->Get(scheme_->label(n));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->name, n->name());
    EXPECT_EQ(record->id, scheme_->label(n));
    EXPECT_EQ(static_cast<xml::NodeType>(record->node_type), n->type());
  }
}

TEST_F(ElementStoreTest, ParentPointersStored) {
  for (xml::Node* n : ruidx::testing::AllNodes(doc_->root())) {
    auto record = store_->Get(scheme_->label(n));
    ASSERT_TRUE(record.ok());
    if (n == doc_->root()) {
      EXPECT_EQ(record->parent_id, record->id);
    } else {
      EXPECT_EQ(record->parent_id, scheme_->label(n->parent()));
    }
  }
}

TEST_F(ElementStoreTest, ExistsDistinguishesVirtualIds) {
  auto real = store_->Exists(scheme_->label(doc_->root()->children()[0]));
  ASSERT_TRUE(real.ok());
  EXPECT_TRUE(*real);
  auto fake = store_->Exists(core::Ruid2Id{BigUint(1), BigUint(99999), false});
  ASSERT_TRUE(fake.ok());
  EXPECT_FALSE(*fake);
}

TEST_F(ElementStoreTest, RuidAncestorCheckNeedsNoPageAccess) {
  // Pick a deep node.
  xml::Node* deep = doc_->root()->children()[5]->children()[0];
  core::Ruid2Id a = scheme_->label(doc_->root());
  core::Ruid2Id d = scheme_->label(deep);

  ASSERT_TRUE(store_->Flush().ok());
  store_->ResetStats();
  EXPECT_TRUE(store_->IsAncestorViaRuid(*scheme_, a, d));
  EXPECT_EQ(store_->logical_page_accesses(), 0u)
      << "rparent must run without touching the store (Sec. 3.3)";

  store_->ResetStats();
  auto nav = store_->IsAncestorViaParentPointers(a, d);
  ASSERT_TRUE(nav.ok());
  EXPECT_TRUE(*nav);
  EXPECT_GT(store_->logical_page_accesses(), 0u)
      << "parent-pointer navigation must fetch records";
}

TEST_F(ElementStoreTest, BothAncestorChecksAgree) {
  auto nodes = ruidx::testing::AllNodes(doc_->root());
  for (size_t i = 0; i < nodes.size(); i += 13) {
    for (size_t j = 0; j < nodes.size(); j += 17) {
      core::Ruid2Id a = scheme_->label(nodes[i]);
      core::Ruid2Id d = scheme_->label(nodes[j]);
      bool via_ruid = store_->IsAncestorViaRuid(*scheme_, a, d);
      auto via_nav = store_->IsAncestorViaParentPointers(a, d);
      ASSERT_TRUE(via_nav.ok());
      EXPECT_EQ(via_ruid, *via_nav) << i << "," << j;
    }
  }
}

TEST_F(ElementStoreTest, FetchAncestorsReturnsChain) {
  xml::Node* deep = doc_->root()->children()[3]->children()[1];
  auto chain = store_->FetchAncestors(*scheme_, scheme_->label(deep));
  ASSERT_TRUE(chain.ok());
  auto expected = ruidx::testing::DomAncestors(deep);
  ASSERT_EQ(chain->size(), expected.size());
  for (size_t i = 0; i < chain->size(); ++i) {
    EXPECT_EQ((*chain)[i].id, scheme_->label(expected[i]));
  }
}

TEST_F(ElementStoreTest, ScanAreaReturnsAreaMembers) {
  // Area of the root: global index 1.
  size_t count = 0;
  ASSERT_TRUE(store_
                  ->ScanArea(BigUint(1),
                             [&](const ElementRecord& record) {
                               EXPECT_EQ(record.id.global, BigUint(1));
                               ++count;
                               return true;
                             })
                  .ok());
  // Non-root members of area 1 (the root is stored under global 1 too).
  EXPECT_GT(count, 0u);
  EXPECT_LT(count, store_->record_count());
}

TEST_F(ElementStoreTest, TextValuesRoundTrip) {
  auto doc = ruidx::testing::MustParse("<a><b>hello &amp; bye</b></a>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  auto store = ElementStore::Create("", 8);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  xml::Node* text = doc->root()->children()[0]->children()[0];
  auto record = (*store)->Get(scheme.label(text));
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->value, "hello & bye");
}

TEST(ElementStoreEdgeTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/ruidx_store_test.db";
  std::remove(path.c_str());
  auto doc = xml::GenerateDblpLike(60);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  uint64_t expected_count = 0;
  {
    auto store = ElementStore::Create(path, 16);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
    expected_count = (*store)->record_count();
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto reopened = ElementStore::Open(path, 16);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->record_count(), expected_count);
    // Lookups and navigational checks still work after reopen.
    xml::Node* deep = doc->root()->children()[30]->children()[0];
    auto record = (*reopened)->Get(scheme.label(deep));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->name, deep->name());
    auto nav = (*reopened)->IsAncestorViaParentPointers(
        scheme.label(doc->root()), scheme.label(deep));
    ASSERT_TRUE(nav.ok());
    EXPECT_TRUE(*nav);
    // And new inserts land correctly.
    ElementRecord extra;
    extra.id = core::Ruid2Id{BigUint(999999), BigUint(2), false};
    extra.parent_id = extra.id;
    extra.name = "extra";
    ASSERT_TRUE((*reopened)->Put(extra).ok());
    auto back = (*reopened)->Get(extra.id);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->name, "extra");
  }
  std::remove(path.c_str());
}

TEST(ElementStoreEdgeTest, OpenRejectsGarbageFile) {
  std::string path = ::testing::TempDir() + "/ruidx_garbage.db";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<char> junk(kPageSize, 'x');
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  EXPECT_FALSE(ElementStore::Open(path).ok());
  std::remove(path.c_str());
}

TEST(ElementStoreEdgeTest, LargeDocumentManyPages) {
  auto doc = xml::GenerateUniformTree(5000, 4);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  auto store = ElementStore::Create("", 16);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  EXPECT_EQ((*store)->record_count(), 5000u);
  // Spot-check lookups after evictions.
  auto nodes = ruidx::testing::AllNodes(doc->root());
  for (size_t i = 0; i < nodes.size(); i += 331) {
    auto record = (*store)->Get(scheme.label(nodes[i]));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->name, nodes[i]->name());
  }
}

// Every node as a record, in document order, with the path term left for
// the store to resolve from the parent record.
std::vector<ElementRecord> DocumentRecords(const core::Ruid2Scheme& scheme,
                                           xml::Node* root) {
  std::vector<ElementRecord> records;
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    ElementRecord record;
    record.id = scheme.label(n);
    record.parent_id = n == root ? record.id : scheme.label(n->parent());
    record.node_type = static_cast<uint8_t>(n->type());
    record.name = n->name();
    if (!n->is_element()) record.value = n->value();
    records.push_back(std::move(record));
    return true;
  });
  return records;
}

std::string Describe(const ElementRecord& r) {
  return r.id.ToString() + " parent=" + r.parent_id.ToString() +
         " type=" + std::to_string(r.node_type) + " name=" + r.name +
         " value=" + r.value + " path=" + std::to_string(r.path_term);
}

// What a store answers, independent of where its pages and heap slots
// landed: the primary scan in key order, both posting sets as (term, id),
// and the records each posting term resolves to through its locations.
struct StoreImage {
  std::vector<std::string> rows;
  std::set<std::string> name_postings;
  std::set<std::string> path_postings;
  std::multiset<std::string> name_records;
  std::multiset<std::string> path_records;
};

StoreImage Capture(ElementStore* store) {
  StoreImage image;
  std::set<std::string> names;
  std::set<uint64_t> path_terms;
  EXPECT_TRUE(store
                  ->ScanAll([&](const BPlusTree::Key& key,
                                const ElementRecord& record) {
                    image.rows.push_back(
                        std::string(key.begin(), key.end()) + "|" +
                        Describe(record));
                    names.insert(record.name);
                    return true;
                  })
                  .ok());
  EXPECT_TRUE(store
                  ->ScanNamePostings([&](uint64_t term,
                                         const core::Ruid2Id& id, uint64_t) {
                    image.name_postings.insert(std::to_string(term) + "|" +
                                               id.ToString());
                    return true;
                  })
                  .ok());
  EXPECT_TRUE(store
                  ->ScanPathPostings([&](uint64_t term,
                                         const core::Ruid2Id& id, uint64_t) {
                    image.path_postings.insert(std::to_string(term) + "|" +
                                               id.ToString());
                    path_terms.insert(term);
                    return true;
                  })
                  .ok());
  for (const std::string& name : names) {
    EXPECT_TRUE(store
                    ->ScanNameTerm(name,
                                   [&](const ElementRecord& record) {
                                     image.name_records.insert(
                                         name + "|" + Describe(record));
                                     return true;
                                   })
                    .ok());
  }
  for (uint64_t term : path_terms) {
    EXPECT_TRUE(store
                    ->ScanPathTerm(term,
                                   [&](const ElementRecord& record) {
                                     image.path_records.insert(
                                         std::to_string(term) + "|" +
                                         Describe(record));
                                     return true;
                                   })
                    .ok());
  }
  return image;
}

void ExpectSameImage(const StoreImage& a, const StoreImage& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.name_postings, b.name_postings);
  EXPECT_EQ(a.path_postings, b.path_postings);
  EXPECT_EQ(a.name_records, b.name_records);
  EXPECT_EQ(a.path_records, b.path_records);
}

void ExpectClean(ElementStore* store) {
  ASSERT_TRUE(store->Flush().ok());
  Status on_disk = store->VerifyOnDisk();
  EXPECT_TRUE(on_disk.ok()) << on_disk.ToString();
  Status secondary = store->VerifySecondaryIndexes();
  EXPECT_TRUE(secondary.ok()) << secondary.ToString();
}

std::unique_ptr<ElementStore> MustCreate(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  auto store = ElementStore::Create(path, 16);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? store.MoveValueUnsafe() : nullptr;
}

std::unique_ptr<ElementStore> PutAll(
    const std::vector<ElementRecord>& records) {
  auto store = ElementStore::Create("", 16);
  EXPECT_TRUE(store.ok());
  for (const ElementRecord& record : records) {
    EXPECT_TRUE((*store)->Put(record).ok());
  }
  return store.MoveValueUnsafe();
}

TEST(ElementStoreBatchTest, MultiAreaBulkLoadMatchesPutLoop) {
  auto doc = xml::GenerateDblpLike(150);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  std::vector<ElementRecord> records = DocumentRecords(scheme, doc->root());
  // Many areas, so document order is not key order: preorder re-enters a
  // parent area after leaving a child area.
  ASSERT_GT(scheme.partition().areas.size(), 10u);
  bool descends = false;
  for (size_t i = 1; i < records.size() && !descends; ++i) {
    descends = *EncodeIdKey(records[i].id) < *EncodeIdKey(records[i - 1].id);
  }
  ASSERT_TRUE(descends) << "document order must not be key order here";

  std::string bulk_path = ::testing::TempDir() + "/ruidx_batch_bulk.db";
  std::string put_path = ::testing::TempDir() + "/ruidx_batch_put.db";
  StoreImage bulk_image, put_image;
  {
    auto bulk = MustCreate(bulk_path);
    auto put = MustCreate(put_path);
    ASSERT_TRUE(bulk && put);
    ASSERT_TRUE(bulk->BulkLoad(scheme, doc->root()).ok());
    for (const ElementRecord& record : records) {
      ASSERT_TRUE(put->Put(record).ok());
    }
    EXPECT_EQ(bulk->record_count(), records.size());
    ExpectClean(bulk.get());
    ExpectClean(put.get());
    // Sequential leaf fill allocates no split siblings: fewer pages prove
    // the batch path ran.
    EXPECT_LT(bulk->pager_stats().allocations, put->pager_stats().allocations);
    bulk_image = Capture(bulk.get());
    put_image = Capture(put.get());
    ASSERT_EQ(bulk_image.rows.size(), records.size());
    ExpectSameImage(bulk_image, put_image);
  }
  for (const std::string& path : {bulk_path, put_path}) {
    auto reopened = ElementStore::Open(path, 16);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectClean(reopened->get());
    ExpectSameImage(Capture(reopened->get()), bulk_image);
    reopened->reset();
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
}

TEST(ElementStoreBatchTest, DuplicateIdBatchMatchesSequentialPut) {
  auto doc = xml::GenerateDblpLike(40);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  std::vector<ElementRecord> records = DocumentRecords(scheme, doc->root());
  // Re-send two records under new names: the later copy must win, and its
  // postings must replace the earlier copy's.
  for (size_t i : {size_t{3}, records.size() / 2}) {
    ElementRecord again = records[i];
    again.name = "renamed" + std::to_string(i);
    again.value = "second";
    records.push_back(again);
  }
  auto bulk = ElementStore::Create("", 16);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE((*bulk)->BulkLoadRecords(records).ok());
  auto put = PutAll(records);
  EXPECT_EQ((*bulk)->record_count(), records.size() - 2);
  ExpectClean(bulk->get());
  ExpectSameImage(Capture(bulk->get()), Capture(put.get()));
}

TEST(ElementStoreBatchTest, BulkLoadRecordsIntoNonEmptyStore) {
  auto doc = xml::GenerateDblpLike(40);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  std::vector<ElementRecord> records = DocumentRecords(scheme, doc->root());
  size_t half = records.size() / 2;
  auto store = ElementStore::Create("", 16);
  ASSERT_TRUE(store.ok());
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*store)->Put(records[i]).ok());
  }
  std::vector<ElementRecord> rest(records.begin() + half, records.end());
  ASSERT_TRUE((*store)->BulkLoadRecords(rest).ok());
  EXPECT_EQ((*store)->record_count(), records.size());
  ExpectClean(store->get());
  ExpectSameImage(Capture(store->get()), Capture(PutAll(records).get()));
}

TEST(ElementStoreBatchTest, ShuffledBatchResolvesTermsLikePut) {
  // Out of document order, some children arrive before their parents;
  // the batch must seed those terms from the bare name, as Put does when
  // the parent is not stored yet.
  auto doc = xml::GenerateDblpLike(40);
  core::Ruid2Scheme scheme(SmallAreas());
  scheme.Build(doc->root());
  std::vector<ElementRecord> records = DocumentRecords(scheme, doc->root());
  std::mt19937_64 rng(13);
  std::shuffle(records.begin(), records.end(), rng);
  auto bulk = ElementStore::Create("", 16);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE((*bulk)->BulkLoadRecords(records).ok());
  auto put = PutAll(records);
  EXPECT_LT((*bulk)->pager_stats().allocations, put->pager_stats().allocations);
  ExpectClean(bulk->get());
  ExpectSameImage(Capture(bulk->get()), Capture(put.get()));
}

TEST(ElementStoreBloomTest, FalsePositiveRateRecoversAfterChurn) {
  // The filter is add-only, so deletions leave their bits set: without the
  // tombstone-triggered rebuild, a delete-heavy store answers "probably
  // here" for most of its REMOVED keys forever. This is the regression
  // test for that drift.
  auto created = ElementStore::Create("", 32);
  ASSERT_TRUE(created.ok());
  ElementStore* store = created->get();
  constexpr uint64_t kN = 2000;
  constexpr uint64_t kRemoved = 1500;
  auto make_id = [](uint64_t i) {
    core::Ruid2Id id;
    id.global = BigUint(1 + i / 64);
    id.local = BigUint(2 + i % 64);
    id.is_area_root = false;
    return id;
  };
  for (uint64_t i = 0; i < kN; ++i) {
    ElementRecord record;
    record.id = make_id(i);
    record.parent_id = make_id(i);
    record.node_type = 1;
    record.name = "n" + std::to_string(i % 16);
    record.value = "v";
    ASSERT_TRUE(store->Put(record).ok());
  }
  // Delete three quarters of the keys. Each Remove reports a tombstone;
  // the store rebuilds the filter from the primary index every time the
  // drift threshold trips, so by the end the filter describes ~500 live
  // keys — not 2000 ghosts.
  for (uint64_t i = 0; i < kRemoved; ++i) {
    ASSERT_TRUE(store->Remove(make_id(i)).ok());
  }

  SecondaryIndexStats stats = store->secondary_stats();
  // A rebuild happened recently enough that the counter is back below the
  // trigger (tombstones >= 64 AND > a quarter of the keys).
  EXPECT_LT(stats.bloom.tombstones, 64 + (kN - kRemoved) / 4);
  // The filter is add-only between rebuilds, so key_count is the live keys
  // at the last rebuild plus tombstones accrued since. Steady state obeys
  // the no-trip condition (K - live) * 4 <= K, i.e. K <= 4/3 * live — far
  // below the 2000 ghosts an unrebuilt filter would carry.
  EXPECT_GE(stats.bloom.key_count, kN - kRemoved);
  EXPECT_LE(stats.bloom.key_count, 64 + (kN - kRemoved) * 4 / 3);

  // No false negatives, ever: every live key still passes.
  for (uint64_t i = kRemoved; i < kN; ++i) {
    EXPECT_TRUE(store->MayContainId(make_id(i)));
  }
  // The drift is gone: removed keys are vetoed again at roughly the
  // filter's nominal FP rate (~1%; without the rebuild every single one
  // of the 1500 would still pass).
  uint64_t ghosts = 0;
  for (uint64_t i = 0; i < kRemoved; ++i) {
    if (store->MayContainId(make_id(i))) ++ghosts;
  }
  EXPECT_LT(ghosts, kRemoved / 10);

  // The rebuilt filter round-trips through Flush + reopen-style Restore
  // with the tombstone counter cleared (checked via live stats here; the
  // persistence path is covered by PersistsAcrossReopen).
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_TRUE(store->VerifySecondaryIndexes().ok());
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
