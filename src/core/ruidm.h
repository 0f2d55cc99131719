// Multilevel recursive UID (Def. 4 / Sec. 2.4 of the paper).
//
// The frame of a 2-level ruid is itself a tree; re-partitioning it yields a
// 3-level scheme, and so on. An l-level identifier is
//     { θ, (α_{l-1}, β_{l-1}), ..., (α_1, β_1) }
// where (α_j, β_j) is the node's local index / root indicator inside its
// UID-local area at level j, that area being identified by the id prefix
// — the multilevel identifier of the area's root one level up — and θ is a
// plain UID at the top level. Every component stays small even when a flat
// enumeration would overflow: with m levels one can address ≈ e^m nodes
// (Sec. 3.1).
//
// parent() generalizes Fig. 6 recursively and still runs on in-memory
// tables only: one K table per level, keyed by the id prefix.
#ifndef RUIDX_CORE_RUIDM_H_
#define RUIDX_CORE_RUIDM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ruid2.h"
#include "scheme/uid.h"
#include "util/result.h"
#include "xml/dom.h"

namespace ruidx {
namespace core {

/// \brief An l-level identifier (Def. 4).
struct RuidMId {
  BigUint theta;
  /// (α_j, β_j) pairs ordered from level l-1 (front) down to level 1 (back).
  std::vector<std::pair<BigUint, bool>> path;

  bool operator==(const RuidMId& o) const {
    return theta == o.theta && path == o.path;
  }
  bool operator!=(const RuidMId& o) const { return !(*this == o); }
  bool operator<(const RuidMId& o) const;

  /// "{θ, (α, β), ...}" in the notation of the paper.
  std::string ToString() const;

  /// Bit width of the widest component — the quantity the multilevel scheme
  /// keeps bounded (Sec. 3.1).
  uint64_t MaxComponentBits() const;
};

/// \brief Multilevel ruid over a DOM tree.
class RuidMScheme {
 public:
  /// \param levels total number of levels l >= 1 (1 = plain UID, 2 = Ruid2).
  /// \param options partitioning budgets applied at every level.
  explicit RuidMScheme(int levels, PartitionOptions options = {})
      : levels_(levels), options_(std::move(options)) {}

  Status Build(xml::Node* root);

  int levels() const { return levels_; }

  const RuidMId& IdOf(const xml::Node* n) const { return ids_.at(n->serial()); }
  bool HasId(const xml::Node* n) const { return ids_.contains(n->serial()); }

  xml::Node* NodeById(const RuidMId& id) const;

  /// Recursive rparent(): pure arithmetic over the per-level K tables.
  Result<RuidMId> Parent(const RuidMId& id) const;

  bool IsAncestorId(const RuidMId& a, const RuidMId& d) const;

  /// Document-order comparison (ancestors precede descendants).
  int CompareIds(const RuidMId& a, const RuidMId& b) const;

  /// Number of labeled nodes of the source tree.
  size_t id_count() const { return ids_.size(); }

  /// Widest component over all assigned identifiers.
  uint64_t MaxComponentBits() const;

  /// Total bits over all identifiers (components + root flags).
  uint64_t TotalIdBits() const;

  /// In-memory footprint of all per-level K tables.
  uint64_t GlobalStateBytes() const;

  /// Number of nodes at the top level (size of the last frame).
  size_t top_level_size() const { return top_uid_.size(); }

  /// Cheap re-encode check: true iff the node currently has this id.
  bool IdMatches(const xml::Node* n, const RuidMId& id) const {
    auto it = ids_.find(n->serial());
    return it != ids_.end() && it->second == id;
  }

 private:
  struct KEntry {
    BigUint root_local;
    uint64_t fanout = 1;
  };
  /// One per level j in [1, levels-1]: K_j keyed by the id prefix (the
  /// multilevel id of the area root at level j+1).
  using KMap = std::map<RuidMId, KEntry>;

  /// id restricted to levels j.. (drops the last `drop` path components).
  static RuidMId Prefix(const RuidMId& id, size_t drop);

  Result<RuidMId> ParentAtLevel(const RuidMId& id, size_t level_index) const;

  int levels_;
  PartitionOptions options_;
  std::vector<KMap> ktables_;  // index 0 <-> level 1
  uint64_t top_kappa_ = 1;
  std::map<RuidMId, xml::Node*> by_id_;
  std::unordered_map<uint32_t, RuidMId> ids_;  // source-tree serial -> id
  std::unordered_map<uint32_t, BigUint> top_uid_;  // top-mirror serial -> θ
  /// Mirror documents for trees at levels 2..l (kept alive for debugging
  /// and for the frame-size statistics the benches report).
  std::vector<std::unique_ptr<xml::Document>> mirrors_;
};

/// \brief Multilevel ruid behind the generic LabelingScheme interface, for
/// the cross-scheme benchmarks. Updates rebuild the whole stack (the
/// incremental Sec. 3.2 machinery is 2-level only), so RelabelAndCount is a
/// full-rebuild diff — shown as such in the E11 table.
class RuidMLabeling : public scheme::LabelingScheme {
 public:
  explicit RuidMLabeling(int levels, PartitionOptions options = {})
      : levels_(levels), options_(std::move(options)), scheme_(levels, options_) {}

  std::string name() const override {
    return "ruidm" + std::to_string(levels_);
  }
  void Build(xml::Node* root) override;
  bool IsParent(const xml::Node* p, const xml::Node* c) const override;
  bool IsAncestor(const xml::Node* a, const xml::Node* d) const override;
  int CompareOrder(const xml::Node* a, const xml::Node* b) const override;
  uint64_t LabelBits(const xml::Node* n) const override;
  uint64_t TotalLabelBits() const override;
  std::string LabelString(const xml::Node* n) const override;
  uint64_t RelabelAndCount(xml::Node* root) override;

  const RuidMScheme& scheme() const { return scheme_; }

 private:
  int levels_;
  PartitionOptions options_;
  RuidMScheme scheme_;
};

}  // namespace core
}  // namespace ruidx

#endif  // RUIDX_CORE_RUIDM_H_
