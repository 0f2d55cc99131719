// Table K (Sec. 2.1): one row per UID-local area, holding the area's global
// index, the local index of the area's root inside the upper area, and the
// area's local maximal fan-out. Together with the frame fan-out κ this is
// the only state rparent() needs, and it is small enough to live in main
// memory — which is the whole point of the scheme.
#ifndef RUIDX_CORE_KTABLE_H_
#define RUIDX_CORE_KTABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "util/biguint.h"

namespace ruidx {
namespace core {

struct KRow {
  BigUint global;      // global index of the area
  BigUint root_local;  // local index of the area's root in the upper area
  uint64_t fanout;     // local maximal fan-out k_i of the area

  bool operator==(const KRow&) const = default;
};

/// The machine-word mirror of a K row, for the packed rparent fast path.
/// Only rows whose global index fits in 128 bits (the 2-word packed global
/// range) and whose root_local fits in 63 bits (the packed local range)
/// have one.
struct PackedKRow {
  uint128_t global;
  uint64_t root_local;
  uint64_t fanout;
};

/// Rows kept sorted by global index ("the table K is sorted according to the
/// global index"), looked up by binary search. A parallel sorted vector of
/// PackedKRow mirrors every row within the packed range, so the fast path
/// binary-searches plain uint64 keys; the two representations are kept in
/// sync by routing every mutation through Assign/Upsert/Erase/SetFanout/
/// SetRootLocal.
class KTable {
 public:
  /// Replaces the whole table with `rows` (any order, globals distinct):
  /// one sort, then the packed mirror in one pass. The bulk counterpart of
  /// an Upsert per row, which would shift the sorted vector every time.
  void Assign(std::vector<KRow> rows);

  /// Inserts or replaces the row for `row.global`.
  void Upsert(KRow row);

  /// Removes the row for `global`; no-op when absent.
  void Erase(const BigUint& global);

  /// The row for `global`, or nullptr.
  const KRow* Find(const BigUint& global) const;

  /// The packed mirror row for `global`, or nullptr when the row is absent
  /// *or* outside the packed range (callers fall back to Find()).
  const PackedKRow* FindPacked(uint128_t global) const;

  /// Updates the fan-out of the row for `global`; returns false when the
  /// row is absent.
  bool SetFanout(const BigUint& global, uint64_t fanout);

  /// Updates the root_local of the row for `global`; returns false when the
  /// row is absent.
  bool SetRootLocal(const BigUint& global, BigUint root_local);

  /// True iff some area with global index `global` has its root at local
  /// index `local` in the upper area (the existence test of rchildren,
  /// Sec. 3.5).
  bool IsAreaRootSlot(const BigUint& global, const BigUint& local) const {
    const KRow* row = Find(global);
    return row != nullptr && row->root_local == local;
  }

  size_t size() const { return rows_.size(); }
  const std::vector<KRow>& rows() const { return rows_; }
  /// Number of rows mirrored into the packed fast path (for stats/tests).
  size_t packed_size() const { return packed_rows_.size(); }

  /// True iff the packed mirror holds exactly what it should for `row`:
  /// a byte-equal PackedKRow when (global, root_local) are within the
  /// packed range, and no entry otherwise. Probed by the mutation-point
  /// RUIDX_DCHECKs and by the analysis::CheckDocumentInvariants verifier.
  bool PackedMirrorAgrees(const KRow& row) const;

  /// Approximate main-memory footprint, reported by the benchmarks.
  uint64_t SizeInBytes() const;

 private:
  /// Corruption injection for the invariant-verifier tests (defined there).
  friend class KTableTestPeer;

  /// Re-derives the packed mirror entry for `row` (insert, update, or drop
  /// when the row left the packed range).
  void SyncPacked(const KRow& row);
  void ErasePacked(const BigUint& global);

  std::vector<KRow> rows_;
  std::vector<PackedKRow> packed_rows_;  // sorted by global
};

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_KTABLE_H_
