// Compressed leaf codec (page format v2): randomized key-corpus round
// trips, boundary fuzz (empty suffixes, full-prefix collisions, restart
// edges), run-local insert/erase churn against a reference map, and
// rejection of stores whose leaf format byte or meta magic is not the
// current one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/element_store.h"
#include "storage/leaf_codec.h"
#include "storage/pager.h"
#include "xml/generator.h"

namespace ruidx {
namespace storage {

/// Rewrites one page of a flushed store on disk, behind the buffer pool,
/// and restamps its trailer so the checksum still holds: the damage under
/// test is a well-formed page in a format the store no longer reads, not a
/// torn write.
class ElementStoreTestPeer {
 public:
  static Status PatchPage(ElementStore* store, uint32_t page_id,
                          const std::function<void(uint8_t*)>& patch) {
    std::vector<uint8_t> page(kPageSize);
    RUIDX_RETURN_NOT_OK(store->pager_->ReadPage(page_id, page.data()));
    patch(page.data());
    StampPageTrailer(page.data(), PageTrailerLsn(page.data()));
    return store->pager_->WritePage(page_id, page.data());
  }

  /// Some leaf page of the primary index, read raw from the file.
  static Result<uint32_t> PrimaryLeafPage(ElementStore* store) {
    std::unordered_set<uint32_t> pages;
    RUIDX_RETURN_NOT_OK(store->index_->CollectPages(&pages));
    std::vector<uint8_t> page(kPageSize);
    for (uint32_t id : pages) {
      RUIDX_RETURN_NOT_OK(store->pager_->ReadPage(id, page.data()));
      if (page[0] == 1) return id;
    }
    return Status::NotFound("primary index has no leaf on disk");
  }
};

namespace {

using leaf::Entry;
using leaf::Key;

Key MakeKey(uint64_t hi, uint64_t lo, uint8_t tail = 0) {
  Key key{};
  for (int i = 0; i < 8; ++i) {
    key[15 - i] = static_cast<uint8_t>(hi >> (8 * i));
    key[31 - i] = static_cast<uint8_t>(lo >> (8 * i));
  }
  key[32] = tail;
  return key;
}

// Sorted, deduplicated corpus shaped like real identifier keys: a few
// shared "global" halves, clustered "local" values, occasional tail-byte
// variants — long common prefixes with bursts of near-identical keys.
std::vector<Entry> RandomCorpus(std::mt19937_64* rng, size_t n) {
  std::vector<Entry> entries;
  std::uniform_int_distribution<uint64_t> global_pick(0, 3);
  std::uniform_int_distribution<uint64_t> step(1, 1 << 20);
  uint64_t local = 0;
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    local += step(*rng);
    e.key = MakeKey(global_pick(*rng), local,
                    static_cast<uint8_t>((*rng)() & 1));
    e.value = (*rng)();
    entries.push_back(e);
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.key == b.key;
                            }),
                entries.end());
  return entries;
}

void ExpectPageMatches(const uint8_t* page, const std::vector<Entry>& want) {
  Status st = leaf::ValidateLeaf(page);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<Entry> got;
  leaf::DecodeAll(page, &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "slot " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "slot " << i;
  }
}

TEST(LeafCodecTest, RandomCorpusRoundTripsAndSearches) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 20; ++round) {
    std::vector<Entry> entries = RandomCorpus(&rng, 1 + round * 9);
    size_t take = leaf::MaxLeafTake(entries.data(), 0, entries.size());
    entries.resize(take);
    std::vector<uint8_t> page(kPageUsableSize, 0);
    ASSERT_TRUE(
        leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 7, 9));
    ExpectPageMatches(page.data(), entries);
    // Random access agrees with sequential decode.
    for (size_t i = 0; i < entries.size(); i += 1 + i / 7) {
      Key key;
      leaf::KeyAt(page.data(), i, &key);
      EXPECT_EQ(key, entries[i].key);
      EXPECT_EQ(leaf::ValueAt(page.data(), i), entries[i].value);
    }
    // LowerBound agrees with the linear reference for present keys,
    // their neighbors, and probes past both ends.
    for (size_t i = 0; i < entries.size(); ++i) {
      bool exact = false;
      EXPECT_EQ(leaf::LowerBound(page.data(), entries[i].key, &exact), i);
      EXPECT_TRUE(exact);
      Key miss = entries[i].key;
      if (miss[32] == 0) {
        miss[32] = 1;  // just above, unless the variant is also stored
        size_t ref = std::lower_bound(
                         entries.begin(), entries.end(), miss,
                         [](const Entry& e, const Key& k) { return e.key < k; }) -
                     entries.begin();
        bool miss_exact = false;
        EXPECT_EQ(leaf::LowerBound(page.data(), miss, &miss_exact), ref);
        EXPECT_EQ(miss_exact, ref < entries.size() && entries[ref].key == miss);
      }
    }
    Key below{};
    bool exact = true;
    EXPECT_EQ(leaf::LowerBound(page.data(), below, &exact), 0u);
    EXPECT_EQ(exact, entries[0].key == below);
    Key above;
    above.fill(0xff);
    EXPECT_EQ(leaf::LowerBound(page.data(), above, &exact), entries.size());
  }
}

TEST(LeafCodecTest, SingleEntryPageHasEmptySuffix) {
  // One entry: the page prefix covers the whole key, the slot stores an
  // empty suffix. The degenerate encoding must still validate and decode.
  std::vector<uint8_t> page(kPageUsableSize, 0);
  Entry only{MakeKey(42, 1, 3), 77};
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), &only, 1, kInvalidPage,
                              kInvalidPage));
  ExpectPageMatches(page.data(), {only});
  bool exact = false;
  EXPECT_EQ(leaf::LowerBound(page.data(), only.key, &exact), 0u);
  EXPECT_TRUE(exact);
}

TEST(LeafCodecTest, FullPrefixCollisionKeys) {
  // Keys identical except the last byte: the page prefix absorbs 32 of 33
  // bytes and every non-head slot stores a one-byte (or empty-shared)
  // suffix. This is the densest page the format can produce.
  std::vector<Entry> entries;
  for (int t = 0; t < 200; ++t) {
    entries.push_back({MakeKey(5, 123, static_cast<uint8_t>(t)), 1000u + t});
  }
  size_t take = leaf::MaxLeafTake(entries.data(), 0, entries.size());
  ASSERT_EQ(take, entries.size()) << "200 one-byte suffixes must fit";
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 0,
                              0));
  ExpectPageMatches(page.data(), entries);
  leaf::PageStats stats;
  leaf::AccumulateStats(page.data(), &stats);
  EXPECT_EQ(stats.entries, entries.size());
  // Stored key bytes: 32-byte page prefix + 2-byte slot headers + <=1-byte
  // suffixes — far below the raw 33 bytes/key.
  EXPECT_LT(stats.key_bytes_stored, stats.key_bytes_raw / 5);
}

TEST(LeafCodecTest, MaxLeafTakeIsExact) {
  std::mt19937_64 rng(99);
  std::vector<Entry> entries = RandomCorpus(&rng, 2000);
  size_t take = leaf::MaxLeafTake(entries.data(), 0, entries.size());
  ASSERT_LT(take, entries.size()) << "need an overfull corpus for this test";
  std::vector<uint8_t> page(kPageUsableSize, 0);
  EXPECT_TRUE(leaf::BuildLeaf(page.data(), entries.data(), take, 0, 0));
  EXPECT_FALSE(leaf::BuildLeaf(page.data(), entries.data(), take + 1, 0, 0))
      << "MaxLeafTake must be the largest fitting count";
}

TEST(LeafCodecTest, MaxLeafTakeLooksOnlyOnePageAhead) {
  // The search window is one page's worth of entries, whatever the length
  // of the rest of the batch: a 100k-entry span gives the same answer as
  // its first kPageUsableSize / kEntryFixed entries, and that answer is
  // still the largest count BuildLeaf accepts.
  constexpr size_t kWindow = kPageUsableSize / leaf::kEntryFixed;
  std::mt19937_64 rng(20261017);
  std::vector<Entry> dense;  // consecutive locals: one-byte suffixes
  for (uint64_t local = 0; local < 120000; ++local) {
    dense.push_back({MakeKey(9, local), local});
  }
  for (const std::vector<Entry>& entries :
       {dense, RandomCorpus(&rng, 120000)}) {
    ASSERT_GT(entries.size(), 100000u);
    for (size_t i : {size_t{0}, size_t{777}, entries.size() / 2}) {
      size_t take = leaf::MaxLeafTake(entries.data(), i, entries.size());
      EXPECT_EQ(take, leaf::MaxLeafTake(entries.data(), i, i + kWindow))
          << "i=" << i;
      std::vector<uint8_t> page(kPageUsableSize, 0);
      EXPECT_TRUE(leaf::BuildLeaf(page.data(), entries.data() + i, take, 0, 0));
      EXPECT_FALSE(
          leaf::BuildLeaf(page.data(), entries.data() + i, take + 1, 0, 0));
    }
  }
}

// Ascending keys whose adjacent common length is drawn per key: mostly
// long (dense locals), sometimes short, now and then a few bytes — so the
// common prefix of a window shrinks in steps as it grows.
std::vector<Entry> ShrinkingPrefixCorpus(std::mt19937_64* rng, size_t n) {
  std::vector<Entry> entries;
  Key key{};
  for (size_t i = 0; i < n; ++i) {
    uint64_t roll = (*rng)() % 100;
    size_t d = roll < 70   ? 28 + (*rng)() % 5
               : roll < 90 ? 16 + (*rng)() % 12
                           : (*rng)() % 16;
    while (key[d] > 0xfc) {  // no room to step this byte: step an earlier one
      if (d == 0) return entries;
      --d;
    }
    key[d] = static_cast<uint8_t>(key[d] + 1 + (*rng)() % 3);
    for (size_t b = d + 1; b < leaf::kKeySize; ++b) {
      key[b] = static_cast<uint8_t>((*rng)());
    }
    entries.push_back({key, (*rng)()});
  }
  return entries;
}

TEST(LeafCodecTest, OnePassMaxLeafTakeEqualsSearchOverEncodedSize) {
  std::mt19937_64 rng(1403);
  for (int round = 0; round < 40; ++round) {
    std::vector<Entry> entries =
        round % 2 == 0 ? ShrinkingPrefixCorpus(&rng, 3000)
                       : RandomCorpus(&rng, 3000);
    ASSERT_GT(entries.size(), 1000u);
    for (int probe = 0; probe < 25; ++probe) {
      size_t i = rng() % entries.size();
      size_t n = std::min(entries.size(), i + 1 + rng() % 600);
      // Reference: the largest k with EncodedSize <= page, by binary search.
      size_t lo = 1, hi = n - i;
      while (lo < hi) {
        size_t mid = (lo + hi + 1) / 2;
        if (leaf::EncodedSize(entries.data(), i, mid) <= kPageUsableSize) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      ASSERT_EQ(leaf::MaxLeafTake(entries.data(), i, n), lo)
          << "round " << round << " i=" << i << " n=" << n;
    }
  }
}

TEST(LeafCodecTest, EntryLocalEditsMatchAModelOnFullPages) {
  // Pages filled to the byte by MaxLeafTake + BuildLeaf, then a random
  // InsertAt/EraseAt storm against a std::vector model. An insert the page
  // refuses must leave it untouched; the tree's fallback (re-encode the
  // whole page if that fits) keeps it full. Every page is validated, and
  // no erase may grow the stored key bytes.
  std::mt19937_64 rng(1404);
  for (int round = 0; round < 12; ++round) {
    std::vector<Entry> corpus = round % 2 == 0
                                    ? ShrinkingPrefixCorpus(&rng, 2000)
                                    : RandomCorpus(&rng, 2000);
    size_t start = rng() % (corpus.size() / 2);
    size_t take = leaf::MaxLeafTake(corpus.data(), start, corpus.size());
    std::vector<Entry> model(corpus.begin() + start,
                             corpus.begin() + start + take);
    std::vector<uint8_t> page(kPageUsableSize, 0);
    ASSERT_TRUE(leaf::BuildLeaf(page.data(), model.data(), model.size(), 0, 0));
    ASSERT_GT(leaf::EncodedSize(corpus.data(), start, take + 1),
              kPageUsableSize);
    for (int op = 0; op < 600; ++op) {
      if (model.empty() || rng() % 2 == 0) {
        // A key near an existing one: same leading bytes, new tail.
        Key key = model.empty() ? corpus[start].key
                                : model[rng() % model.size()].key;
        size_t from = 20 + rng() % 13;
        for (size_t b = from; b < leaf::kKeySize; ++b) {
          key[b] = static_cast<uint8_t>(rng());
        }
        auto it = std::lower_bound(
            model.begin(), model.end(), key,
            [](const Entry& e, const Key& k) { return e.key < k; });
        if (it != model.end() && it->key == key) continue;
        size_t idx = static_cast<size_t>(it - model.begin());
        bool exact = true;
        ASSERT_EQ(leaf::LowerBound(page.data(), key, &exact), idx);
        ASSERT_FALSE(exact);
        Entry e{key, rng()};
        std::vector<uint8_t> before = page;
        leaf::InsertOutcome out = leaf::InsertAt(page.data(), idx, key, e.value);
        if (out == leaf::InsertOutcome::kDone) {
          model.insert(it, e);
        } else {
          ASSERT_EQ(page, before) << "refused insert changed the page";
          std::vector<Entry> all = model;
          all.insert(all.begin() + idx, e);
          if (leaf::BuildLeaf(page.data(), all.data(), all.size(), 0, 0)) {
            model = std::move(all);
          }
        }
      } else {
        size_t idx = rng() % model.size();
        leaf::PageStats before;
        leaf::AccumulateStats(page.data(), &before);
        leaf::EraseAt(page.data(), idx);
        model.erase(model.begin() + idx);
        leaf::PageStats after;
        leaf::AccumulateStats(page.data(), &after);
        ASSERT_LT(after.key_bytes_stored, before.key_bytes_stored)
            << "round " << round << " op " << op;
      }
      ExpectPageMatches(page.data(), model);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(LeafCodecTest, InsertEraseAtRestartEdges) {
  // Build a page whose slots land exactly on restart boundaries, then
  // exercise the run-local edit paths at every edge: slot 0, run heads,
  // run tails, and the last slot. Validate after every single edit.
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 64; ++i) {
    entries.push_back({MakeKey(1, 10 * i), i});
  }
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(
      leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 0, 0));

  auto insert = [&](uint64_t local, uint64_t value) {
    Entry e{MakeKey(1, local), value};
    bool exact = false;
    size_t idx = leaf::LowerBound(page.data(), e.key, &exact);
    ASSERT_FALSE(exact);
    leaf::InsertOutcome out = leaf::InsertAt(page.data(), idx, e.key, e.value);
    ASSERT_EQ(out, leaf::InsertOutcome::kDone);
    entries.insert(entries.begin() + idx, e);
    ExpectPageMatches(page.data(), entries);
  };
  auto erase = [&](size_t idx) {
    leaf::EraseAt(page.data(), idx);
    entries.erase(entries.begin() + idx);
    ExpectPageMatches(page.data(), entries);
  };

  insert(5, 100);            // before slot 0 — new first key of run 0
  insert(165, 101);          // right at the old run-0/run-1 boundary
  insert(635, 102);          // tail of the last run
  erase(0);                  // run head of run 0
  erase(leaf::kRestartInterval);  // a later run's head
  erase(entries.size() - 1);      // very last slot
  // Erasing a whole run must drop its restart directory slot cleanly.
  while (entries.size() > leaf::kRestartInterval) {
    erase(entries.size() - 1);
  }
  while (!entries.empty()) {
    erase(0);
  }
  EXPECT_EQ(leaf::ValidateLeaf(page.data()).ok(), true);
}

TEST(LeafCodecTest, EraseAheadOfStretchedRunHeadShrinksThePage) {
  // InsertAt stretches run 0 to 18 slots, still with one head; its slot
  // 16, (6, 1), is encoded against (5, 14) before it. Erasing
  // slot 0 rewrites only the new head (5, 1, 1) and must shrink the page
  // every time: on a full page, growth would run into the restart
  // directory.
  std::vector<Entry> entries;
  for (uint64_t lo = 1; lo <= 14; ++lo) entries.push_back({MakeKey(5, lo), lo});
  for (uint64_t lo = 1; lo <= 12; ++lo) {
    entries.push_back({MakeKey(6, lo), 100 + lo});
  }
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(
      leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 0, 0));
  for (uint64_t lo : {1, 2}) {
    Entry e{MakeKey(5, lo, 1), 50 + lo};
    bool exact = false;
    size_t idx = leaf::LowerBound(page.data(), e.key, &exact);
    ASSERT_EQ(leaf::InsertAt(page.data(), idx, e.key, e.value),
              leaf::InsertOutcome::kDone);
    entries.insert(entries.begin() + idx, e);
  }
  ExpectPageMatches(page.data(), entries);
  while (entries.size() > leaf::kRestartInterval) {
    leaf::PageStats before;
    leaf::AccumulateStats(page.data(), &before);
    leaf::EraseAt(page.data(), 0);
    entries.erase(entries.begin());
    ExpectPageMatches(page.data(), entries);
    leaf::PageStats after;
    leaf::AccumulateStats(page.data(), &after);
    EXPECT_LT(after.key_bytes_stored, before.key_bytes_stored)
        << entries.size() << " entries left";
  }
}

TEST(LeafCodecTest, InsertReportsRebuildWhenRunOverflows) {
  // Stuff one run past kMaxRunLength: the codec must hand back kRebuild
  // rather than produce an over-long run.
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 4; ++i) {
    entries.push_back({MakeKey(1, 1000 * (i + 1)), i});
  }
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(
      leaf::BuildLeaf(page.data(), entries.data(), entries.size(), 0, 0));
  bool saw_rebuild = false;
  for (uint64_t i = 0; i < leaf::kMaxRunLength + 4; ++i) {
    Key key = MakeKey(1, 1001 + i);
    bool exact = false;
    size_t idx = leaf::LowerBound(page.data(), key, &exact);
    ASSERT_FALSE(exact);
    leaf::InsertOutcome out = leaf::InsertAt(page.data(), idx, key, i);
    if (out == leaf::InsertOutcome::kRebuild) {
      saw_rebuild = true;
      break;
    }
    ASSERT_EQ(out, leaf::InsertOutcome::kDone);
    Status st = leaf::ValidateLeaf(page.data());
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_TRUE(saw_rebuild);
}

TEST(LeafCodecTest, InsertOutsidePagePrefixReportsRebuild) {
  // A key that breaks the page-wide common prefix can never be spliced in
  // place — the prefix bytes are stored once for the whole page.
  std::vector<Entry> entries = {{MakeKey(7, 100), 1}, {MakeKey(7, 200), 2}};
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), entries.data(), 2, 0, 0));
  Key outside = MakeKey(9, 150);
  bool exact = false;
  size_t idx = leaf::LowerBound(page.data(), outside, &exact);
  EXPECT_EQ(leaf::InsertAt(page.data(), idx, outside, 3),
            leaf::InsertOutcome::kRebuild);
  // The failed insert must not have disturbed the page.
  ExpectPageMatches(page.data(), entries);
}

TEST(LeafCodecTest, RandomChurnMatchesReferenceMap) {
  // Mixed insert/erase/overwrite storm against std::map, with a full
  // structural validation after every mutation. kRebuild/kNoRoom fall back
  // to the same decode-all + BuildLeaf path the tree uses.
  std::mt19937_64 rng(4242);
  std::map<Key, uint64_t> reference;
  std::vector<uint8_t> page(kPageUsableSize, 0);
  ASSERT_TRUE(leaf::BuildLeaf(page.data(), nullptr, 0, 0, 0));
  std::uniform_int_distribution<uint64_t> local_pick(0, 400);
  for (int op = 0; op < 3000; ++op) {
    Key key = MakeKey(3, local_pick(rng) * 3,
                      static_cast<uint8_t>(rng() & 1));
    bool exact = false;
    size_t idx = leaf::LowerBound(page.data(), key, &exact);
    uint64_t roll = rng() % 100;
    if (roll < 60) {  // upsert
      uint64_t value = rng();
      if (exact) {
        leaf::SetValueAt(page.data(), idx, value);
      } else {
        leaf::InsertOutcome out =
            leaf::InsertAt(page.data(), idx, key, value);
        if (out != leaf::InsertOutcome::kDone) {
          std::vector<Entry> all;
          leaf::DecodeAll(page.data(), &all);
          all.insert(all.begin() + idx, Entry{key, value});
          if (!leaf::BuildLeaf(page.data(), all.data(), all.size(), 0, 0)) {
            continue;  // a real tree would split; key not stored
          }
        }
      }
      reference[key] = value;
    } else if (exact) {  // erase
      leaf::EraseAt(page.data(), idx);
      reference.erase(key);
    }
    Status st = leaf::ValidateLeaf(page.data());
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
  }
  std::vector<Entry> want(reference.size());
  std::transform(reference.begin(), reference.end(), want.begin(),
                 [](const auto& kv) { return Entry{kv.first, kv.second}; });
  ExpectPageMatches(page.data(), want);
}

/// A file-backed store holding a small labeled document, flushed.
std::unique_ptr<ElementStore> FlushedStore(const std::string& path) {
  std::remove(path.c_str());
  auto doc = xml::GenerateDblpLike(60);
  core::Ruid2Scheme scheme;
  scheme.Build(doc->root());
  auto store = ElementStore::Create(path, 16);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return nullptr;
  EXPECT_TRUE((*store)->BulkLoad(scheme, doc->root()).ok());
  EXPECT_TRUE((*store)->Flush().ok());
  Status verify = (*store)->VerifyOnDisk();
  EXPECT_TRUE(verify.ok()) << verify.ToString();
  return store.MoveValueUnsafe();
}

TEST(LeafCodecTest, VerifyRejectsLeafOfAnotherFormat) {
  // A leaf whose format byte is not v2 (here 0, the byte a zero-filled or
  // pre-v2 page carries) must fail the on-disk check rather than be read
  // with the wrong layout.
  std::string path = ::testing::TempDir() + "/ruidx_leaf_format.db";
  auto store = FlushedStore(path);
  ASSERT_NE(store, nullptr);
  auto leaf_page = ElementStoreTestPeer::PrimaryLeafPage(store.get());
  ASSERT_TRUE(leaf_page.ok()) << leaf_page.status().ToString();
  ASSERT_TRUE(ElementStoreTestPeer::PatchPage(store.get(), *leaf_page,
                                              [](uint8_t* page) {
                                                page[1] = 0;
                                              })
                  .ok());
  Status verify = store->VerifyOnDisk();
  ASSERT_FALSE(verify.ok());
  EXPECT_TRUE(verify.IsCorruption()) << verify.ToString();
  EXPECT_NE(verify.ToString().find("[compressed-page-reconstruction]"),
            std::string::npos)
      << verify.ToString();
  store.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(LeafCodecTest, OpenRejectsRxs3MetaPage) {
  // "RXS3" stamped the pre-v2 store format; neither a snapshot of the
  // committed state nor a reopen may read such a file as a current store.
  std::string path = ::testing::TempDir() + "/ruidx_rxs3_meta.db";
  auto store = FlushedStore(path);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(ElementStoreTestPeer::PatchPage(store.get(), 0,
                                              [](uint8_t* page) {
                                                const uint32_t rxs3 =
                                                    0x52585333;
                                                std::memcpy(page, &rxs3, 4);
                                              })
                  .ok());
  auto snapshot = store->OpenSnapshot();
  ASSERT_FALSE(snapshot.ok());
  EXPECT_TRUE(snapshot.status().IsCorruption())
      << snapshot.status().ToString();
  store.reset();  // nothing is dirty, so the patched meta page stays

  auto reopened = ElementStore::Open(path, 16);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace storage
}  // namespace ruidx
