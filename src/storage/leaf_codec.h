// Prefix-compressed B+tree leaf pages (page format v2).
//
// The structural identifier keys the tree stores are order-preserving byte
// strings: sibling and descendant identifiers share long common prefixes
// (all keys of one area share the 16-byte global half; consecutive locals
// share most of their big-endian bytes). This codec, the only B+tree leaf
// layout, stores, per page, the byte prefix common to every key once, and
// per slot only the bytes that differ from the previous key — the classic slotted-page front compression, with
// restart points every kRestartInterval slots so point lookups stay
// O(log runs + run length). Each run has exactly one head (its first
// entry, shared == 0, the one the directory points at); every other entry
// is encoded against its predecessor. An in-place insert or erase
// therefore rewrites at most two entries — the new entry and its
// successor, or the erased entry's successor — shifts the bytes behind
// them, and patches the later directory pairs.
//
// Leaf layout (header bytes [0..12) share the internal-node header, so
// chain walks and leaf detection read them the same way on every page):
//   [0]  u8  is_leaf (1)
//   [1]  u8  format: kLeafFormatCompressed. Any other value is rejected by
//            ValidateLeaf and asserted against on the B+tree read paths.
//   [2..4)   u16 count
//   [4..8)   u32 next_leaf
//   [8..12)  u32 prev_leaf
//   [12..14) u16 prefix_len P — bytes shared by every key in the page
//   [14..16) u16 data_end — one past the last entry byte (from page start)
//   [16..16+P) the page prefix
//   [16+P..data_end) entries, back to back:
//       u8 shared     bytes shared with the previous key, counted after
//                     the page prefix (0 for the head of a run)
//       u8 suffix_len remaining key bytes (shared + suffix_len = 33 - P)
//       suffix_len bytes of key suffix
//       u64 value (little-endian, unaligned)
// Restart directory, growing down from the page tail:
//   [kPageUsableSize-2..) u16 restart count R
//   restart j (j in [0,R)) at kPageUsableSize - 2 - 4*(j+1):
//       u16 entry byte offset (from page start), u16 entry index
// The directory stores explicit entry indices rather than assuming a fixed
// stride, so in-place edits can lengthen or shorten a run without
// re-encoding it: a run stays one head plus delta-encoded entries.
#ifndef RUIDX_STORAGE_LEAF_CODEC_H_
#define RUIDX_STORAGE_LEAF_CODEC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/result.h"

namespace ruidx {
namespace storage {

namespace leaf {

constexpr size_t kKeySize = 33;  // mirrors BPlusTree::kKeySize
using Key = std::array<uint8_t, kKeySize>;

constexpr uint8_t kLeafFormatCompressed = 2;

/// Fresh runs start every kRestartInterval entries; in-place inserts may
/// stretch a run (still one head) to twice that before the page is
/// re-encoded.
constexpr size_t kRestartInterval = 16;
constexpr size_t kMaxRunLength = 2 * kRestartInterval;

/// Per-entry bytes besides the key suffix: u8 shared, u8 suffix_len, u64
/// value. Every entry costs at least this much, so no page holds more than
/// kPageUsableSize / kEntryFixed entries.
constexpr size_t kEntryFixed = 2 + 8;

struct Entry {
  Key key;
  uint64_t value;
};

/// True iff the (leaf) page carries the v2 format byte.
bool IsCompressed(const uint8_t* page);

/// Encodes `entries` (strictly ascending) into `page` as one compressed
/// leaf with a run every kRestartInterval entries; next/prev links are
/// written from the arguments. Returns false (page untouched) when the
/// encoding does not fit.
bool BuildLeaf(uint8_t* page, const Entry* entries, size_t n, uint32_t next,
               uint32_t prev);

/// Exact byte size BuildLeaf needs for `entries[i..i+k)` (header, prefix,
/// entries, restart directory). Recomputes every entry: the reference that
/// MaxLeafTake's incremental count is checked against.
size_t EncodedSize(const Entry* entries, size_t i, size_t k);

/// Number of entries of `entries[i..n)` that fit in one compressed page
/// (at least 1 for i < n; a single entry always fits): one forward pass
/// with one key comparison per entry, stopping at the first entry that
/// does not fit, so a call costs O(page), not O(n - i).
size_t MaxLeafTake(const Entry* entries, size_t i, size_t n);

/// The key of slot `i` (restart-directory seek + run decode).
void KeyAt(const uint8_t* page, size_t i, Key* out);

/// The value of slot `i`.
uint64_t ValueAt(const uint8_t* page, size_t i);

/// Overwrites the value of slot `i` in place (key bytes untouched).
void SetValueAt(uint8_t* page, size_t i, uint64_t value);

/// Index of the first slot with key >= `key`; *exact set when equal.
size_t LowerBound(const uint8_t* page, const Key& key, bool* exact);

/// Sequential decode of every slot in order; return false to stop early.
void ForEachEntry(const uint8_t* page,
                  const std::function<bool(size_t, const Key&, uint64_t)>& fn);

/// Decodes the whole page.
void DecodeAll(const uint8_t* page, std::vector<Entry>* out);

/// Outcome of an in-place slot insert.
enum class InsertOutcome {
  kDone,     ///< inserted; at most two entries rewritten, directory patched
  kRebuild,  ///< needs a whole-page re-encode (prefix mismatch or long run)
  kNoRoom,   ///< re-encode will not help; the caller must split
};

/// Inserts (key, value) at slot `idx` of the run containing the slot,
/// writing only the new entry and its successor in the run. kRebuild when
/// the key does not share the page prefix or the run would exceed
/// kMaxRunLength; kNoRoom when the page lacks the bytes.
InsertOutcome InsertAt(uint8_t* page, size_t idx, const Key& key,
                       uint64_t value);

/// Removes slot `idx`, rewriting only its successor in the run (which
/// becomes the run head when `idx` was one) and patching the restart
/// directory. The page never grows.
void EraseAt(uint8_t* page, size_t idx);

/// Structural check of one leaf page: a leaf of format v2
/// ([compressed-page-reconstruction]), restart-directory order
/// ([restart-point-order]) and full decode/re-encode reconstruction of
/// every run with one head ([compressed-page-reconstruction]). Returns
/// Corruption with the bracketed invariant name on the first violation.
Status ValidateLeaf(const uint8_t* page);

/// Per-page accounting for the compression observability surfaces
/// (`ruidx_tool check --store`, bench_compact).
struct PageStats {
  uint64_t entries = 0;
  uint64_t key_bytes_stored = 0;  // prefix + per-slot headers and suffixes
  uint64_t key_bytes_raw = 0;     // entries * kKeySize
  /// Histogram of run lengths, index = run length (clamped to
  /// kMaxRunLength); [0] unused.
  std::array<uint64_t, kMaxRunLength + 1> run_length_histogram{};
};
void AccumulateStats(const uint8_t* page, PageStats* stats);

}  // namespace leaf
}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_LEAF_CODEC_H_
