#include "core/ruidm.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/dcheck.h"

namespace ruidx {
namespace core {

using scheme::UidParent;

bool RuidMId::operator<(const RuidMId& o) const {
  if (theta != o.theta) return theta < o.theta;
  if (path.size() != o.path.size()) return path.size() < o.path.size();
  for (size_t i = 0; i < path.size(); ++i) {
    if (path[i].first != o.path[i].first) return path[i].first < o.path[i].first;
    if (path[i].second != o.path[i].second) return !path[i].second;
  }
  return false;
}

std::string RuidMId::ToString() const {
  std::ostringstream os;
  os << "{" << theta.ToDecimalString();
  for (const auto& [alpha, beta] : path) {
    os << ", (" << alpha.ToDecimalString() << ", "
       << (beta ? "true" : "false") << ")";
  }
  os << "}";
  return os.str();
}

uint64_t RuidMId::MaxComponentBits() const {
  uint64_t bits = static_cast<uint64_t>(theta.BitWidth());
  for (const auto& [alpha, beta] : path) {
    bits = std::max(bits, static_cast<uint64_t>(alpha.BitWidth()));
  }
  return bits;
}

RuidMId RuidMScheme::Prefix(const RuidMId& id, size_t drop) {
  RuidMId out;
  out.theta = id.theta;
  out.path.assign(id.path.begin(),
                  id.path.end() - static_cast<long>(drop));
  return out;
}

Status RuidMScheme::Build(xml::Node* root) {
  if (levels_ < 1) return Status::InvalidArgument("levels must be >= 1");
  ktables_.clear();
  by_id_.clear();
  ids_.clear();
  top_uid_.clear();
  mirrors_.clear();

  // Stack the levels: at each level j < levels_, partition tree_j with a
  // Ruid2 pass, keep (α_j, β_j) per node, and mirror the frame into
  // tree_{j+1}. The top tree gets a plain UID (θ).
  struct LevelBuild {
    Ruid2Scheme scheme;
    // tree_j area-root serial -> mirror node in tree_{j+1}.
    std::unordered_map<uint32_t, xml::Node*> to_mirror;
  };
  std::vector<LevelBuild> built;
  std::vector<xml::Node*> level_roots{root};

  xml::Node* cur_root = root;
  for (int j = 1; j < levels_; ++j) {
    LevelBuild lb{Ruid2Scheme(options_), {}};
    lb.scheme.Build(cur_root);
    const Partition& partition = lb.scheme.partition();

    // Mirror the frame into a fresh document, preserving child order.
    auto mirror = std::make_unique<xml::Document>();
    std::vector<xml::Node*> mirror_of(partition.areas.size(), nullptr);
    xml::Node* mroot = mirror->CreateElement("f");
    Status st = mirror->AppendChild(mirror->document_node(), mroot);
    if (!st.ok()) return st;
    mirror_of[0] = mroot;
    std::vector<uint32_t> stack{0};
    while (!stack.empty()) {
      uint32_t a = stack.back();
      stack.pop_back();
      for (uint32_t child : partition.areas[a].child_areas) {
        xml::Node* m = mirror->CreateElement("f");
        st = mirror->AppendChild(mirror_of[a], m);
        if (!st.ok()) return st;
        mirror_of[child] = m;
        stack.push_back(child);
      }
    }
    for (uint32_t a = 0; a < partition.areas.size(); ++a) {
      lb.to_mirror[partition.areas[a].root->serial()] = mirror_of[a];
    }
    cur_root = mroot;
    level_roots.push_back(mroot);
    mirrors_.push_back(std::move(mirror));
    built.push_back(std::move(lb));
  }

  // Top level: plain UID over tree_levels.
  {
    scheme::UidScheme top;
    top.Build(cur_root);
    top_kappa_ = top.k();
    xml::PreorderTraverse(cur_root, [&](xml::Node* n, int) {
      top_uid_[n->serial()] = top.label(n);
      return true;
    });
  }

  // Compute multilevel ids top-down: ids of tree_{j+1} nodes first, then
  // extend to tree_j.
  // per_level_ids[i] maps serial in tree at level (i+1) -> RuidMId of levels
  // (i+1)..m.
  std::vector<std::unordered_map<uint32_t, RuidMId>> per_level(
      static_cast<size_t>(levels_));
  {
    // Level m: θ only.
    auto& top_ids = per_level[static_cast<size_t>(levels_ - 1)];
    for (const auto& [serial, theta] : top_uid_) {
      RuidMId id;
      id.theta = theta;
      top_ids[serial] = std::move(id);
    }
  }
  for (int j = levels_ - 1; j >= 1; --j) {
    const LevelBuild& lb = built[static_cast<size_t>(j - 1)];
    const Partition& partition = lb.scheme.partition();
    auto& upper_ids = per_level[static_cast<size_t>(j)];
    auto& my_ids = per_level[static_cast<size_t>(j - 1)];
    xml::Node* jroot = level_roots[static_cast<size_t>(j - 1)];
    xml::PreorderTraverse(jroot, [&](xml::Node* n, int) {
      const Ruid2Id& two = lb.scheme.label(n);
      // Reference area: the node's own area when it is an area root,
      // otherwise the area containing it; both are frame nodes one level up.
      xml::Node* area_root =
          two.is_area_root
              ? n
              : partition
                    .areas[partition.member_area.at(n->serial())]
                    .root;
      xml::Node* mirror = lb.to_mirror.at(area_root->serial());
      RuidMId id = upper_ids.at(mirror->serial());
      id.path.emplace_back(two.local, two.is_area_root);
      my_ids[n->serial()] = std::move(id);
      return true;
    });
  }

  // K tables: K_j keyed by the prefix (the id of the area root one level
  // up), carrying the area root's local index in the upper area and the
  // area's local fan-out.
  ktables_.resize(static_cast<size_t>(std::max(0, levels_ - 1)));
  for (int j = 1; j < levels_; ++j) {
    const LevelBuild& lb = built[static_cast<size_t>(j - 1)];
    const Partition& partition = lb.scheme.partition();
    const auto& upper_ids = per_level[static_cast<size_t>(j)];
    KMap& kmap = ktables_[static_cast<size_t>(j - 1)];
    for (uint32_t a = 0; a < partition.areas.size(); ++a) {
      xml::Node* area_root = partition.areas[a].root;
      xml::Node* mirror = lb.to_mirror.at(area_root->serial());
      const Ruid2Id& root_two = lb.scheme.label(area_root);
      kmap[upper_ids.at(mirror->serial())] =
          KEntry{root_two.local, partition.areas[a].local_fanout};
    }
  }

  // Publish the ids of the source tree.
  const auto& source_ids = per_level[0];
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    const RuidMId& id = source_ids.at(n->serial());
    ids_[n->serial()] = id;
    by_id_[id] = n;
    return true;
  });
  // Two distinct nodes mapping to one identifier would collapse in by_id_.
  RUIDX_DCHECK(ids_.size() == by_id_.size(),
               "duplicate multilevel identifier after build");
  return Status::OK();
}

xml::Node* RuidMScheme::NodeById(const RuidMId& id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

Result<RuidMId> RuidMScheme::ParentAtLevel(const RuidMId& id,
                                           size_t level_index) const {
  // level_index counts from the innermost remaining level: an id with an
  // empty path lives at the top level.
  if (id.path.empty()) {
    if (id.theta <= BigUint(1)) {
      return Status::NotFound("the top-level root has no parent");
    }
    RuidMId out;
    out.theta = UidParent(id.theta, top_kappa_);
    return out;
  }
  const auto& [alpha, beta] = id.path.back();
  RuidMId prefix = Prefix(id, 1);
  if (beta) {
    if (alpha == BigUint(1)) {
      return Status::NotFound("the main root has no parent");
    }
    RUIDX_ASSIGN_OR_RETURN(prefix, ParentAtLevel(prefix, level_index + 1));
  }
  // The innermost pair of `id` sits at level j = levels_ - |path|, whose K
  // table lives at index j - 1.
  const KMap& kmap =
      ktables_[static_cast<size_t>(levels_) - id.path.size() - 1];
  auto it = kmap.find(prefix);
  if (it == kmap.end()) {
    return Status::NotFound("no K entry for area " + prefix.ToString());
  }
  if (alpha < BigUint(2)) {
    return Status::InvalidArgument("local index has no parent in its area");
  }
  BigUint l = UidParent(alpha, it->second.fanout);
  RuidMId out = std::move(prefix);
  if (l == BigUint(1)) {
    out.path.emplace_back(it->second.root_local, true);
  } else {
    out.path.emplace_back(std::move(l), false);
  }
  return out;
}

Result<RuidMId> RuidMScheme::Parent(const RuidMId& id) const {
  return ParentAtLevel(id, 0);
}

bool RuidMScheme::IsAncestorId(const RuidMId& a, const RuidMId& d) const {
  if (a == d) return false;
  RuidMId cur = d;
  for (;;) {
    auto parent = Parent(cur);
    if (!parent.ok()) return false;
    cur = parent.MoveValueUnsafe();
    if (cur == a) return true;
  }
}

int RuidMScheme::CompareIds(const RuidMId& a, const RuidMId& b) const {
  if (a == b) return 0;
  auto chain_of = [&](const RuidMId& id) {
    std::vector<RuidMId> chain;
    RuidMId cur = id;
    chain.push_back(cur);
    for (;;) {
      auto parent = Parent(cur);
      if (!parent.ok()) break;
      cur = parent.MoveValueUnsafe();
      chain.push_back(cur);
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
  };
  std::vector<RuidMId> ca = chain_of(a);
  std::vector<RuidMId> cb = chain_of(b);
  size_t i = 0;
  while (i < ca.size() && i < cb.size() && ca[i] == cb[i]) ++i;
  if (i == ca.size()) return -1;
  if (i == cb.size()) return 1;
  // The divergent entries are siblings enumerated in the same area; their
  // level-1 local indices decide the order. A sibling at the top level has
  // an empty path and is ordered by θ.
  const RuidMId& xa = ca[i];
  const RuidMId& xb = cb[i];
  if (xa.path.empty() || xb.path.empty()) {
    return xa.theta < xb.theta ? -1 : 1;
  }
  return xa.path.back().first < xb.path.back().first ? -1 : 1;
}

uint64_t RuidMScheme::MaxComponentBits() const {
  uint64_t bits = 0;
  for (const auto& [serial, id] : ids_) {
    bits = std::max(bits, id.MaxComponentBits());
  }
  return bits;
}

uint64_t RuidMScheme::TotalIdBits() const {
  uint64_t total = 0;
  for (const auto& [serial, id] : ids_) {
    total += static_cast<uint64_t>(id.theta.BitWidth());
    for (const auto& [alpha, beta] : id.path) {
      total += static_cast<uint64_t>(alpha.BitWidth()) + 1;
    }
  }
  return total;
}

void RuidMLabeling::Build(xml::Node* root) {
  scheme_ = RuidMScheme(levels_, options_);
  Status st = scheme_.Build(root);
  assert(st.ok() && "RuidMScheme::Build failed");
  (void)st;
}

bool RuidMLabeling::IsParent(const xml::Node* p, const xml::Node* c) const {
  auto parent = scheme_.Parent(scheme_.IdOf(c));
  return parent.ok() && *parent == scheme_.IdOf(p);
}

bool RuidMLabeling::IsAncestor(const xml::Node* a, const xml::Node* d) const {
  return scheme_.IsAncestorId(scheme_.IdOf(a), scheme_.IdOf(d));
}

int RuidMLabeling::CompareOrder(const xml::Node* a, const xml::Node* b) const {
  return scheme_.CompareIds(scheme_.IdOf(a), scheme_.IdOf(b));
}

uint64_t RuidMLabeling::LabelBits(const xml::Node* n) const {
  const RuidMId& id = scheme_.IdOf(n);
  uint64_t bits = static_cast<uint64_t>(id.theta.BitWidth());
  for (const auto& [alpha, beta] : id.path) {
    bits += static_cast<uint64_t>(alpha.BitWidth()) + 1;
  }
  return bits;
}

uint64_t RuidMLabeling::TotalLabelBits() const { return scheme_.TotalIdBits(); }

std::string RuidMLabeling::LabelString(const xml::Node* n) const {
  return scheme_.IdOf(n).ToString();
}

uint64_t RuidMLabeling::RelabelAndCount(xml::Node* root) {
  // The multilevel construction is rebuilt wholesale; count survivors whose
  // identifier changed.
  std::vector<std::pair<xml::Node*, RuidMId>> old_ids;
  xml::PreorderTraverse(root, [&](xml::Node* n, int) {
    if (scheme_.HasId(n)) old_ids.emplace_back(n, scheme_.IdOf(n));
    return true;
  });
  Build(root);
  // Every surviving node must carry a fresh identifier after the rebuild.
  RUIDX_DCHECK(std::all_of(old_ids.begin(), old_ids.end(),
                           [&](const auto& p) {
                             return scheme_.HasId(p.first);
                           }),
               "node lost its identifier across a relabel");
  uint64_t changed = 0;
  for (const auto& [node, id] : old_ids) {
    if (!scheme_.IdMatches(node, id)) ++changed;
  }
  return changed;
}

uint64_t RuidMScheme::GlobalStateBytes() const {
  uint64_t bytes = 0;
  for (const KMap& kmap : ktables_) {
    for (const auto& [key, entry] : kmap) {
      bytes += static_cast<uint64_t>(key.theta.WordCount()) * 8;
      bytes += key.path.size() * 9;
      bytes += static_cast<uint64_t>(entry.root_local.WordCount()) * 8 + 8;
    }
  }
  return bytes;
}

}  // namespace core
}  // namespace ruidx
