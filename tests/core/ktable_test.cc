#include "core/ktable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace ruidx {
namespace core {
namespace {

TEST(KTableTest, UpsertAndFind) {
  KTable k;
  k.Upsert({BigUint(3), BigUint(2), 4});
  k.Upsert({BigUint(1), BigUint(1), 2});
  k.Upsert({BigUint(10), BigUint(9), 3});
  EXPECT_EQ(k.size(), 3u);
  const KRow* row = k.Find(BigUint(3));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->fanout, 4u);
  EXPECT_EQ(k.Find(BigUint(7)), nullptr);
}

TEST(KTableTest, RowsStaySortedByGlobal) {
  KTable k;
  k.Upsert({BigUint(10), BigUint(1), 1});
  k.Upsert({BigUint(2), BigUint(1), 1});
  k.Upsert({BigUint(5), BigUint(1), 1});
  ASSERT_EQ(k.rows().size(), 3u);
  EXPECT_EQ(k.rows()[0].global, BigUint(2));
  EXPECT_EQ(k.rows()[1].global, BigUint(5));
  EXPECT_EQ(k.rows()[2].global, BigUint(10));
}

TEST(KTableTest, UpsertReplacesExisting) {
  KTable k;
  k.Upsert({BigUint(2), BigUint(1), 3});
  k.Upsert({BigUint(2), BigUint(4), 7});
  EXPECT_EQ(k.size(), 1u);
  EXPECT_EQ(k.Find(BigUint(2))->fanout, 7u);
  EXPECT_EQ(k.Find(BigUint(2))->root_local, BigUint(4));
}

TEST(KTableTest, EraseRemovesRow) {
  KTable k;
  k.Upsert({BigUint(2), BigUint(1), 3});
  k.Upsert({BigUint(5), BigUint(2), 2});
  k.Erase(BigUint(2));
  EXPECT_EQ(k.size(), 1u);
  EXPECT_EQ(k.Find(BigUint(2)), nullptr);
  k.Erase(BigUint(99));  // no-op
  EXPECT_EQ(k.size(), 1u);
}

TEST(KTableTest, SettersUpdateInPlace) {
  KTable k;
  k.Upsert({BigUint(4), BigUint(2), 3});
  EXPECT_TRUE(k.SetFanout(BigUint(4), 9));
  EXPECT_EQ(k.Find(BigUint(4))->fanout, 9u);
  EXPECT_TRUE(k.SetRootLocal(BigUint(4), BigUint(6)));
  EXPECT_EQ(k.Find(BigUint(4))->root_local, BigUint(6));
  EXPECT_FALSE(k.SetFanout(BigUint(5), 1));
  EXPECT_FALSE(k.SetRootLocal(BigUint(5), BigUint(1)));
}

TEST(KTableTest, PackedMirrorTracksRows) {
  KTable k;
  k.Upsert({BigUint(4), BigUint(2), 3});
  const PackedKRow* packed = k.FindPacked(4);
  ASSERT_NE(packed, nullptr);
  EXPECT_EQ(packed->root_local, 2u);
  EXPECT_EQ(packed->fanout, 3u);
  EXPECT_EQ(k.packed_size(), 1u);

  // Setters keep the mirror in sync.
  k.SetFanout(BigUint(4), 9);
  EXPECT_EQ(k.FindPacked(4)->fanout, 9u);
  k.SetRootLocal(BigUint(4), BigUint(7));
  EXPECT_EQ(k.FindPacked(4)->root_local, 7u);

  // A root_local outside the packed 63-bit range evicts the mirror entry
  // (the row itself stays findable), and packing back restores it.
  BigUint huge_local = BigUint::Pow(BigUint(2), 63);
  k.SetRootLocal(BigUint(4), huge_local);
  EXPECT_EQ(k.FindPacked(4), nullptr);
  ASSERT_NE(k.Find(BigUint(4)), nullptr);
  EXPECT_EQ(k.Find(BigUint(4))->root_local, huge_local);
  k.SetRootLocal(BigUint(4), BigUint((uint64_t{1} << 63) - 1));
  ASSERT_NE(k.FindPacked(4), nullptr);
  EXPECT_EQ(k.FindPacked(4)->root_local, (uint64_t{1} << 63) - 1);

  // A global outside 128 bits never gets a mirror entry.
  BigUint huge_global = BigUint::Pow(BigUint(2), 128);
  k.Upsert({huge_global, BigUint(3), 5});
  EXPECT_EQ(k.packed_size(), 1u);

  // Erase drops the mirror entry with the row.
  k.Erase(BigUint(4));
  EXPECT_EQ(k.FindPacked(4), nullptr);
  EXPECT_EQ(k.packed_size(), 0u);
}

TEST(KTableTest, AssignEqualsAnUpsertLoop) {
  // Shuffled rows, some outside the packed range: a global past 128 bits
  // and a root_local past 63 bits. Assign must leave the same rows and the
  // same packed mirror as one Upsert per row.
  std::mt19937_64 rng(1402);
  std::vector<KRow> rows;
  for (uint64_t g = 1; g <= 300; ++g) {
    rows.push_back({BigUint(g * 7), BigUint(rng() % 1000), 1 + rng() % 9});
  }
  rows.push_back({BigUint::Pow(BigUint(2), 130), BigUint(3), 4});
  rows.push_back({BigUint(5), BigUint::Pow(BigUint(2), 63), 2});
  rows.push_back({BigUint::Pow(BigUint(2), 127), BigUint(9), 6});
  std::shuffle(rows.begin(), rows.end(), rng);

  KTable upserted;
  for (const KRow& row : rows) upserted.Upsert(row);
  KTable assigned;
  assigned.Upsert({BigUint(4), BigUint(1), 1});  // replaced by Assign
  assigned.Assign(rows);

  EXPECT_EQ(assigned.rows(), upserted.rows());
  EXPECT_EQ(assigned.packed_size(), upserted.packed_size());
  EXPECT_EQ(assigned.packed_size(), rows.size() - 2);
  EXPECT_EQ(assigned.Find(BigUint(4)), nullptr);
  for (const KRow& row : assigned.rows()) {
    EXPECT_TRUE(assigned.PackedMirrorAgrees(row)) << row.global.ToDecimalString();
  }
  EXPECT_EQ(assigned.FindPacked(5), nullptr);
  const PackedKRow* top =
      assigned.FindPacked(BigUint::Pow(BigUint(2), 127).ToUint128());
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->fanout, 6u);
}

TEST(KTableTest, IsAreaRootSlot) {
  KTable k;
  k.Upsert({BigUint(7), BigUint(5), 2});
  EXPECT_TRUE(k.IsAreaRootSlot(BigUint(7), BigUint(5)));
  EXPECT_FALSE(k.IsAreaRootSlot(BigUint(7), BigUint(4)));
  EXPECT_FALSE(k.IsAreaRootSlot(BigUint(8), BigUint(5)));
}

TEST(KTableTest, BigGlobalsSupported) {
  KTable k;
  BigUint huge = BigUint::Pow(BigUint(2), 100);
  k.Upsert({huge, BigUint(3), 5});
  ASSERT_NE(k.Find(huge), nullptr);
  EXPECT_GT(k.SizeInBytes(), 0u);
}

TEST(KTableTest, AssignEmptyEmpties) {
  KTable k;
  k.Upsert({BigUint(1), BigUint(1), 1});
  k.Assign({});
  EXPECT_EQ(k.size(), 0u);
  EXPECT_EQ(k.packed_size(), 0u);
}

}  // namespace
}  // namespace core
}  // namespace ruidx
