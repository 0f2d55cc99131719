// The persistent secondary-index subsystem: Bloom filter basics, posting
// key order, name/path index maintenance across Put/Remove/overwrite,
// persistence across reopen, and by-name selection through the postings.
#include "storage/secondary_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "storage/bloom.h"
#include "storage/element_store.h"
#include "testutil.h"
#include "xml/generator.h"
#include "xpath/name_index.h"

namespace ruidx {
namespace storage {
namespace {

core::Ruid2Id MakeId(uint64_t global, uint64_t local,
                     bool area_root = false) {
  core::Ruid2Id id;
  id.global = BigUint(global);
  id.local = BigUint(local);
  id.is_area_root = area_root;
  return id;
}

ElementRecord MakeRecord(uint64_t i, const std::string& name,
                         const std::string& value = "") {
  ElementRecord record;
  record.id = MakeId(1, 2 + i);
  record.parent_id = record.id;
  record.node_type = 1;
  record.name = name;
  record.value = value;
  return record;
}

// --- BloomFilter --------------------------------------------------------------

TEST(BloomFilterTest, NeverFalseNegative) {
  BloomFilter bloom = BloomFilter::ForExpectedKeys(1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    uint8_t bytes[8];
    std::memcpy(bytes, &i, 8);
    bloom.Add(Fnv1a64(bytes, 8));
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    uint8_t bytes[8];
    std::memcpy(bytes, &i, 8);
    EXPECT_TRUE(bloom.MayContain(Fnv1a64(bytes, 8))) << i;
  }
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  BloomFilter bloom = BloomFilter::ForExpectedKeys(2000);
  for (uint64_t i = 0; i < 2000; ++i) {
    uint8_t bytes[8];
    std::memcpy(bytes, &i, 8);
    bloom.Add(Fnv1a64(bytes, 8));
  }
  uint64_t false_positives = 0;
  for (uint64_t i = 2000; i < 22000; ++i) {
    uint8_t bytes[8];
    std::memcpy(bytes, &i, 8);
    if (bloom.MayContain(Fnv1a64(bytes, 8))) ++false_positives;
  }
  // ~10 bits/key, 7 hashes → ~1% expected; allow generous slack.
  EXPECT_LT(false_positives, 20000 * 0.05)
      << bloom.Stats().estimated_fpr;
  EXPECT_GT(bloom.Stats().bits_per_key, 8.0);
}

TEST(BloomFilterTest, RestoreRoundTrips) {
  BloomFilter bloom = BloomFilter::ForExpectedKeys(100);
  for (uint64_t h : {7ULL, 99ULL, 12345ULL}) bloom.Add(h);
  BloomFilter copy;
  copy.Restore(std::vector<uint64_t>(bloom.words()), bloom.key_count());
  for (uint64_t h : {7ULL, 99ULL, 12345ULL}) EXPECT_TRUE(copy.MayContain(h));
  EXPECT_EQ(copy.key_count(), 3u);
}

TEST(BloomFilterTest, OverloadSignal) {
  BloomFilter bloom(BloomFilter::kMinBits);  // 1024 bits → ~102 keys at 10b/k
  for (uint64_t i = 0; i < 102; ++i) bloom.Add(i * 2654435761ULL);
  EXPECT_FALSE(bloom.Overloaded());
  for (uint64_t i = 102; i < 110; ++i) bloom.Add(i * 2654435761ULL);
  EXPECT_TRUE(bloom.Overloaded());
}

// --- Posting keys -------------------------------------------------------------

TEST(PostingKeyTest, OrderIsTermThenDocumentOrder) {
  // Within one term, posting keys must sort exactly like primary id keys.
  std::vector<core::Ruid2Id> ids = {MakeId(1, 1, true), MakeId(1, 2),
                                    MakeId(1, 10), MakeId(2, 1, true),
                                    MakeId(2, 3)};
  std::vector<BPlusTree::Key> keys;
  for (const auto& id : ids) {
    auto key = EncodePostingKey(42, id);
    ASSERT_TRUE(key.ok());
    keys.push_back(*key);
  }
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(keys[i - 1] < keys[i]) << i;
  }
  // A smaller term sorts before any id under a larger term.
  auto small_term = EncodePostingKey(41, MakeId(999, 999));
  ASSERT_TRUE(small_term.ok());
  EXPECT_TRUE(*small_term < keys.front());
  // Round trip.
  EXPECT_EQ(DecodePostingTerm(keys[0]), 42u);
  EXPECT_EQ(DecodePostingId(keys[0]), ids[0]);
}

TEST(PostingKeyTest, RejectsOversizedComponents) {
  core::Ruid2Id id;
  id.global = BigUint(1);
  for (int i = 0; i < 13; ++i) id.global = id.global * BigUint(256);
  id.local = BigUint(1);
  EXPECT_FALSE(EncodePostingKey(1, id).ok());
}

TEST(PostingKeyTest, IdBytesMatchBigEndianReference) {
  // The id half of a posting key is ToBytesBE(12) of global and local; the
  // 96-bit limit holds exactly (2^96 - 1 encodes, 2^96 does not).
  std::mt19937_64 rng(1406);
  BigUint limit = BigUint::Pow(BigUint(2), 96);
  std::vector<BigUint> values = {BigUint(0), BigUint(1), limit - BigUint(1),
                                 BigUint::Pow(BigUint(2), 64)};
  for (int i = 0; i < 200; ++i) {
    uint64_t hi = rng() >> (32 + rng() % 32);  // 1 to 32 bits
    uint64_t lo = rng() >> (rng() % 64);
    values.push_back(BigUint(hi) * BigUint::Pow(BigUint(2), 64) + lo);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    core::Ruid2Id id{values[i], values[values.size() - 1 - i], i % 2 == 0};
    auto key = EncodePostingKey(7, id);
    ASSERT_TRUE(key.ok()) << id.ToString();
    uint8_t want[12];
    ASSERT_TRUE(id.global.ToBytesBE(want, 12));
    EXPECT_EQ(std::memcmp(key->data() + 8, want, 12), 0) << id.ToString();
    ASSERT_TRUE(id.local.ToBytesBE(want, 12));
    EXPECT_EQ(std::memcmp(key->data() + 20, want, 12), 0) << id.ToString();
    EXPECT_EQ(DecodePostingId(*key), id);
  }
  EXPECT_FALSE(EncodePostingKey(7, core::Ruid2Id{limit, BigUint(1), false}).ok());
  EXPECT_FALSE(EncodePostingKey(7, core::Ruid2Id{BigUint(1), limit, false}).ok());
}

TEST(PathTermTest, OrderSensitiveAndSeedDistinct) {
  uint64_t ab = ExtendPathTerm(RootPathTerm("a"), "b");
  uint64_t ba = ExtendPathTerm(RootPathTerm("b"), "a");
  EXPECT_NE(ab, ba);
  // Path term of a one-component path differs from the bare name term.
  EXPECT_NE(RootPathTerm("a"), HashNameTerm("a"));
}

// --- ElementStore maintenance -------------------------------------------------

TEST(ElementStoreIndexTest, NameScanSeesPutsAndRemoves) {
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Put(MakeRecord(i, i % 2 ? "odd" : "even")).ok());
  }
  size_t odd = 0;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("odd",
                                 [&](const ElementRecord& r) {
                                   EXPECT_EQ(r.name, "odd");
                                   ++odd;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(odd, 25u);

  // Removes drop postings.
  for (uint64_t i = 1; i < 50; i += 2) {
    ASSERT_TRUE((*store)->Remove(MakeId(1, 2 + i)).ok());
  }
  odd = 0;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("odd", [&](const ElementRecord&) {
                    ++odd;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(odd, 0u);
  EXPECT_TRUE((*store)->VerifySecondaryIndexes().ok());
}

TEST(ElementStoreIndexTest, OverwriteRetargetsPostings) {
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put(MakeRecord(0, "alpha", "v0")).ok());
  // Same id, new name: the old posting must disappear.
  ASSERT_TRUE((*store)->Put(MakeRecord(0, "beta", "v1")).ok());
  size_t alpha = 0, beta = 0;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("alpha", [&](const ElementRecord&) {
                    ++alpha;
                    return true;
                  })
                  .ok());
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("beta",
                                 [&](const ElementRecord& r) {
                                   EXPECT_EQ(r.value, "v1");
                                   ++beta;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(alpha, 0u);
  EXPECT_EQ(beta, 1u);
  // Same name overwrite keeps exactly one posting, pointing at fresh data.
  ASSERT_TRUE((*store)->Put(MakeRecord(0, "beta", "v2")).ok());
  beta = 0;
  std::string value;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("beta",
                                 [&](const ElementRecord& r) {
                                   value = r.value;
                                   ++beta;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(beta, 1u);
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE((*store)->VerifySecondaryIndexes().ok());
}

TEST(ElementStoreIndexTest, BulkLoadBuildsIndexesAndDocumentOrder) {
  auto doc = ruidx::testing::MustParse(
      "<a><b><c/><c/></b><b><c/></b><d/></a>");
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  EXPECT_TRUE((*store)->VerifySecondaryIndexes().ok());

  // Name scan yields document order (c under first b before second b's c).
  std::vector<core::Ruid2Id> cs;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("c",
                                 [&](const ElementRecord& r) {
                                   cs.push_back(r.id);
                                   return true;
                                 })
                  .ok());
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_LT(scheme.CompareIds(cs[0], cs[1]), 0);
  EXPECT_LT(scheme.CompareIds(cs[1], cs[2]), 0);

  // Path scan: /a/b/c hits exactly the three c's; /a/d exactly one.
  uint64_t abc = ExtendPathTerm(ExtendPathTerm(RootPathTerm("a"), "b"), "c");
  size_t hits = 0;
  ASSERT_TRUE((*store)
                  ->ScanPathTerm(abc,
                                 [&](const ElementRecord& r) {
                                   EXPECT_EQ(r.name, "c");
                                   ++hits;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(hits, 3u);
  hits = 0;
  ASSERT_TRUE((*store)
                  ->ScanPathTerm(ExtendPathTerm(RootPathTerm("a"), "d"),
                                 [&](const ElementRecord&) {
                                   ++hits;
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(hits, 1u);
}

TEST(ElementStoreIndexTest, IndexesSurviveReopenAndRecovery) {
  std::string path = ::testing::TempDir() + "/ruidx_secondary_reopen.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    auto store = ElementStore::Create(path);
    ASSERT_TRUE(store.ok());
    for (uint64_t i = 0; i < 120; ++i) {
      ASSERT_TRUE((*store)->Put(MakeRecord(i, "tag", "v")).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    // Uncommitted tail the reopen must roll back: the destructor's final
    // commit is made to fail (a clean shutdown would commit it).
    ASSERT_TRUE((*store)->Put(MakeRecord(500, "tag", "lost")).ok());
    (*store)->InjectFaultAfter(0);
  }
  auto reopened = ElementStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->VerifyOnDisk().ok());
  EXPECT_TRUE((*reopened)->VerifySecondaryIndexes().ok());
  size_t tags = 0;
  ASSERT_TRUE((*reopened)
                  ->ScanNameTerm("tag", [&](const ElementRecord&) {
                    ++tags;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(tags, 120u);
  // The restored Bloom filter answers misses without tree descents, and
  // never vetoes a stored id.
  EXPECT_FALSE((*reopened)->MayContainId(MakeId(77, 999)));
  for (uint64_t i = 0; i < 120; ++i) {
    EXPECT_TRUE((*reopened)->MayContainId(MakeId(1, 2 + i))) << i;
  }
  SecondaryIndexStats stats = (*reopened)->secondary_stats();
  EXPECT_EQ(stats.name_postings, 120u);
  EXPECT_EQ(stats.path_postings, 120u);
  EXPECT_EQ(stats.bloom.key_count, 120u);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ElementStoreIndexTest, BloomRebuildKeepsContract) {
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  // Far past the initial 1024-bit filter's capacity: forces rebuilds.
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE((*store)->Put(MakeRecord(i, "n" + std::to_string(i))).ok());
  }
  for (uint64_t i = 0; i < 600; ++i) {
    EXPECT_TRUE((*store)->MayContainId(MakeId(1, 2 + i))) << i;
  }
  SecondaryIndexStats stats = (*store)->secondary_stats();
  EXPECT_GE(stats.bloom.bit_count, 600 * BloomFilter::kTargetBitsPerKey);
  EXPECT_TRUE((*store)->VerifySecondaryIndexes().ok());
}

// --- Name selection (Sec. 4 "Database file/table selection") ----------------

TEST(ElementStoreIndexTest, NameSelectionTouchesFewerPagesThanFullScan) {
  // The paper names a table after (element name, area global index); the
  // posting key [name term | global | local | flag] sorts one store by that
  // same pair, so selecting a name reads only its posting range plus one
  // heap fetch per match. Compare against scanning every area.
  auto doc = xml::GenerateDblpLike(120);
  core::PartitionOptions small_areas;
  small_areas.max_area_nodes = 24;
  small_areas.max_area_depth = 3;
  core::Ruid2Scheme scheme(small_areas);
  scheme.Build(doc->root());
  auto store = ElementStore::Create("");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  ASSERT_GT(scheme.ktable().rows().size(), 1u);

  (*store)->ResetStats();
  size_t years = 0;
  ASSERT_TRUE((*store)
                  ->ScanNameTerm("year",
                                 [&](const ElementRecord& record) {
                                   EXPECT_EQ(record.name, "year");
                                   ++years;
                                   return true;
                                 })
                  .ok());
  uint64_t selective_io = (*store)->logical_page_accesses();

  (*store)->ResetStats();
  size_t all = 0;
  size_t scanned_years = 0;
  for (const auto& row : scheme.ktable().rows()) {
    ASSERT_TRUE((*store)
                    ->ScanArea(row.global,
                               [&](const ElementRecord& record) {
                                 ++all;
                                 if (record.name == "year") ++scanned_years;
                                 return true;
                               })
                    .ok());
  }
  uint64_t full_io = (*store)->logical_page_accesses();

  xpath::NameIndex index(doc->root());
  EXPECT_GT(years, 0u);
  EXPECT_EQ(years, index.Lookup("year").size());
  EXPECT_EQ(scanned_years, years);
  EXPECT_EQ(all, (*store)->record_count());
  EXPECT_LT(selective_io, full_io / 2)
      << selective_io << " vs " << full_io;
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
