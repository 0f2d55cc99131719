// A Bloom filter over 64-bit key hashes, one per store, to answer "is this
// identifier definitely not here?" without descending the B+tree. The
// filter is add-only — deletions leave it a superset of the live key set,
// which preserves the one property the query path relies on and the fsck
// asserts: no false negatives, ever.
//
// Supersets are safe but not free: every deletion leaves dead bits behind,
// so under delete-heavy churn the false-positive rate drifts up while the
// filter believes itself lightly loaded. The owner reports deletions via
// NoteRemoval(); once tombstones outgrow a quarter of the added keys,
// NeedsRebuild() asks the owner to re-derive the filter from its
// authoritative key source (ElementStore::RebuildBloom), which resets the
// drift.
//
// Bits live in memory (Put touches no pages) and are serialized into a
// chain of buffer-pool pages at Flush, so the on-disk filter always
// describes a committed key set and rolls back with everything else on
// crash recovery.
#ifndef RUIDX_STORAGE_BLOOM_H_
#define RUIDX_STORAGE_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ruidx {
namespace storage {

/// 64-bit FNV-1a over an arbitrary byte string — the key-hash function the
/// store feeds the filter (and the secondary-index term hash; keeping them
/// in one place keeps writer and fsck byte-compatible).
uint64_t Fnv1a64(const uint8_t* data, size_t len);

struct BloomStats {
  uint64_t bit_count = 0;
  uint64_t key_count = 0;
  /// Keys removed from the owning store since the filter was (re)built —
  /// their bits are still set, so they inflate the effective FP rate.
  uint64_t tombstones = 0;
  uint32_t hash_count = 0;
  double bits_per_key = 0.0;
  /// (1 - e^{-kn/m})^k — the textbook estimate for the current load.
  double estimated_fpr = 0.0;
};

class BloomFilter {
 public:
  /// ~10 bits/key at the expected load gives ~1% false positives with the
  /// optimal 7 hashes; stores start small and rebuild as they grow.
  static constexpr uint64_t kMinBits = 1024;
  static constexpr uint64_t kTargetBitsPerKey = 10;
  static constexpr uint32_t kHashCount = 7;

  /// Rounds `bits` up to a power of two (so the per-probe modulo is a mask).
  explicit BloomFilter(uint64_t bits = kMinBits);

  /// Sized for `expected_keys` at the target bits/key ratio.
  static BloomFilter ForExpectedKeys(uint64_t expected_keys);

  /// Sets the k probe bits derived from `hash` (double hashing).
  void Add(uint64_t hash);

  /// False = the key was never added; true = probably present.
  bool MayContain(uint64_t hash) const;

  /// True once the live key count outgrows the target ratio — the owner
  /// should rebuild a larger filter from its authoritative key source.
  bool Overloaded() const {
    return key_count_ * kTargetBitsPerKey > bit_count();
  }

  /// Records that a key covered by this filter was removed from the owning
  /// store. The bits stay set (clearing shared bits would break the
  /// no-false-negative contract), but the counter lets NeedsRebuild detect
  /// the drift.
  void NoteRemoval() { ++tombstone_count_; }

  /// True once tombstones exceed a quarter of the keys ever added (and the
  /// churn is non-trivial): the observed FP rate has drifted well past
  /// what key_count suggests, so the owner should rebuild from its
  /// authoritative key source.
  bool NeedsRebuild() const {
    return tombstone_count_ >= kRebuildMinTombstones &&
           tombstone_count_ * 4 > key_count_;
  }

  uint64_t bit_count() const { return words_.size() * 64; }
  uint64_t key_count() const { return key_count_; }
  uint64_t tombstone_count() const { return tombstone_count_; }
  BloomStats Stats() const;

  /// Raw word image for page serialization (little-endian u64 words).
  const std::vector<uint64_t>& words() const { return words_; }
  /// Reinstalls a persisted image. `key_count` restores the load counter.
  void Restore(std::vector<uint64_t> words, uint64_t key_count);

 private:
  /// Below this many tombstones a rebuild cannot pay for its full key
  /// scan — tiny stores would otherwise rebuild on every other Remove.
  static constexpr uint64_t kRebuildMinTombstones = 64;

  std::vector<uint64_t> words_;
  uint64_t mask_ = 0;  // bit_count - 1 (bit_count is a power of two)
  uint64_t key_count_ = 0;
  uint64_t tombstone_count_ = 0;
};

}  // namespace storage
}  // namespace ruidx

#endif  // RUIDX_STORAGE_BLOOM_H_
