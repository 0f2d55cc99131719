#include "xpath/structural_join.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "storage/element_store.h"
#include "xml/dom.h"

namespace ruidx {
namespace xpath {

namespace {

/// The stack skeleton every join in this file shares: one merge pass in
/// document order over `n_anc` ancestor-side and `n_desc` descendant-side
/// items, both already sorted. `admit(a, d)` says ancestor item a enters the
/// stack before descendant item d is judged (a precedes d; for -or-self
/// joins, a precedes or equals d). `nests(a, b)` says ancestor item a
/// properly contains ancestor item b; `covers(a, d)` says a contains d (or
/// equals it, for -or-self). For each descendant item d, in order,
/// visit(stack, d) sees the indices of exactly the ancestor items covering
/// d, outermost first.
template <typename Admit, typename Nests, typename Covers, typename Visit>
void StackMerge(size_t n_anc, size_t n_desc, const Admit& admit,
                const Nests& nests, const Covers& covers, const Visit& visit) {
  std::vector<size_t> stack;
  size_t ai = 0;
  for (size_t d = 0; d < n_desc; ++d) {
    // Admit every ancestor candidate that starts before d.
    while (ai < n_anc && admit(ai, d)) {
      while (!stack.empty() && !nests(stack.back(), ai)) stack.pop_back();
      stack.push_back(ai++);
    }
    // Retire stack entries that do not contain d.
    while (!stack.empty() && !covers(stack.back(), d)) stack.pop_back();
    visit(stack, d);
  }
}

/// A join input annotated with root-to-node identifier chains, computed
/// exactly once per input element and stored in one contiguous arena per
/// input with (offset, length) entries per node: the comparators below run
/// on flat compares, with no per-comparison rparent() calls or hash
/// lookups. `Id` is core::PackedRuid2Id on the fast path and core::Ruid2Id
/// when some identifier leaves the packed range.
template <typename Id>
struct ChainSet {
  struct Item {
    xml::Node* node;
    uint32_t offset;
    uint32_t length;
  };
  std::vector<Id> arena;
  std::vector<Item> items;

  const Id* chain(const Item& item) const { return arena.data() + item.offset; }
};

/// Packed annotation. Returns false when any identifier on any chain
/// leaves the packed range; the caller then reruns the BigUint annotation
/// for both inputs.
bool AnnotateChains(const core::Ruid2Scheme& scheme,
                    const std::vector<xml::Node*>& nodes,
                    ChainSet<core::PackedRuid2Id>* out) {
  out->items.reserve(nodes.size());
  std::vector<core::PackedRuid2Id> chain;
  for (xml::Node* n : nodes) {
    const core::Ruid2Id& label = scheme.label(n);
    if (!scheme.AncestorsPacked(label, &chain)) return false;
    core::PackedRuid2Id self;
    if (!core::PackRuid2Id(label, &self)) return false;
    uint32_t offset = static_cast<uint32_t>(out->arena.size());
    // AncestorsPacked is nearest-first; the arena stores root first.
    out->arena.insert(out->arena.end(), chain.rbegin(), chain.rend());
    out->arena.push_back(self);
    out->items.push_back({n, offset, static_cast<uint32_t>(chain.size() + 1)});
  }
  return true;
}

/// BigUint annotation; always succeeds.
bool AnnotateChains(const core::Ruid2Scheme& scheme,
                    const std::vector<xml::Node*>& nodes,
                    ChainSet<core::Ruid2Id>* out) {
  out->items.reserve(nodes.size());
  for (xml::Node* n : nodes) {
    // Ancestors() serves the frame part of the chain from the per-area
    // ancestor-path cache; only the within-area climb costs divisions.
    std::vector<core::Ruid2Id> chain = scheme.Ancestors(scheme.label(n));
    uint32_t offset = static_cast<uint32_t>(out->arena.size());
    out->arena.insert(out->arena.end(), chain.rbegin(), chain.rend());
    out->arena.push_back(scheme.label(n));
    out->items.push_back({n, offset, static_cast<uint32_t>(chain.size() + 1)});
  }
  return true;
}

uint64_t SiblingLocal(const core::PackedRuid2Id& id) { return id.local(); }
const BigUint& SiblingLocal(const core::Ruid2Id& id) { return id.local; }

/// Document order is lexicographic on sibling locals (Fig. 10 / Lemma 2).
template <typename Id>
bool ChainLess(const ChainSet<Id>& sa, const typename ChainSet<Id>::Item& a,
               const ChainSet<Id>& sb, const typename ChainSet<Id>::Item& b) {
  const Id* pa = sa.chain(a);
  const Id* pb = sb.chain(b);
  uint32_t n = std::min(a.length, b.length);
  for (uint32_t i = 0; i < n; ++i) {
    if (!(pa[i] == pb[i])) return SiblingLocal(pa[i]) < SiblingLocal(pb[i]);
  }
  return a.length < b.length;  // ancestors precede descendants
}

/// Ancestorship is the proper-prefix relation on chains; with `or_self`
/// an equal chain counts too.
template <typename Id>
bool ChainContains(const ChainSet<Id>& sa,
                   const typename ChainSet<Id>::Item& a,
                   const ChainSet<Id>& sb,
                   const typename ChainSet<Id>::Item& b, bool or_self) {
  if (or_self ? a.length > b.length : a.length >= b.length) return false;
  const Id* pa = sa.chain(a);
  const Id* pb = sb.chain(b);
  for (uint32_t i = 0; i < a.length; ++i) {
    if (!(pa[i] == pb[i])) return false;
  }
  return true;
}

/// Puts `set` into document order. Name postings already arrive that way,
/// so the check saves the sort on the common path.
template <typename Id>
void SortChains(ChainSet<Id>* set) {
  auto less = [set](const typename ChainSet<Id>::Item& x,
                    const typename ChainSet<Id>::Item& y) {
    return ChainLess(*set, x, *set, y);
  };
  if (!std::is_sorted(set->items.begin(), set->items.end(), less)) {
    std::sort(set->items.begin(), set->items.end(), less);
  }
}

/// StackMerge over two sorted chain sets.
template <typename Id, typename Visit>
void ChainMerge(const ChainSet<Id>& anc, const ChainSet<Id>& desc,
                bool or_self, const Visit& visit) {
  StackMerge(
      anc.items.size(), desc.items.size(),
      [&](size_t a, size_t d) {
        return or_self ? !ChainLess(desc, desc.items[d], anc, anc.items[a])
                       : ChainLess(anc, anc.items[a], desc, desc.items[d]);
      },
      [&](size_t a, size_t b) {
        return ChainContains(anc, anc.items[a], anc, anc.items[b], false);
      },
      [&](size_t a, size_t d) {
        return ChainContains(anc, anc.items[a], desc, desc.items[d], or_self);
      },
      visit);
}

/// Annotates both inputs, sorts them into document order and calls
/// fn(anc_set, desc_set): on packed chains when every identifier fits (and
/// the fast path is on), else on BigUint chains.
template <typename Fn>
auto WithSortedChains(const core::Ruid2Scheme& scheme,
                      const std::vector<xml::Node*>& ancestors,
                      const std::vector<xml::Node*>& descendants, Fn&& fn) {
  if (core::PackedFastPathEnabled()) {
    ChainSet<core::PackedRuid2Id> anc, desc;
    if (AnnotateChains(scheme, ancestors, &anc) &&
        AnnotateChains(scheme, descendants, &desc)) {
      SortChains(&anc);
      SortChains(&desc);
      return fn(anc, desc);
    }
  }
  ChainSet<core::Ruid2Id> anc, desc;
  AnnotateChains(scheme, ancestors, &anc);
  AnnotateChains(scheme, descendants, &desc);
  SortChains(&anc);
  SortChains(&desc);
  return fn(anc, desc);
}

}  // namespace

JoinResult StructuralJoinRuid(const core::Ruid2Scheme& scheme,
                              std::vector<xml::Node*> ancestors,
                              std::vector<xml::Node*> descendants) {
  return WithSortedChains(
      scheme, ancestors, descendants, [](const auto& anc, const auto& desc) {
        JoinResult out;
        out.reserve(desc.items.size());  // every survivor emits >= 1 pair
        ChainMerge(anc, desc, /*or_self=*/false,
                   [&](const std::vector<size_t>& stack, size_t d) {
                     for (size_t a : stack) {
                       out.emplace_back(anc.items[a].node, desc.items[d].node);
                     }
                   });
        return out;
      });
}

std::vector<xml::Node*> SemiJoinDescendantsRuid(
    const core::Ruid2Scheme& scheme, const std::vector<xml::Node*>& context,
    const std::vector<xml::Node*>& candidates, bool or_self) {
  return WithSortedChains(
      scheme, context, candidates,
      [or_self](const auto& ctx, const auto& cand) {
        std::vector<xml::Node*> out;
        // Each candidate is visited once, so nested context emits no
        // duplicates.
        ChainMerge(ctx, cand, or_self,
                   [&](const std::vector<size_t>& stack, size_t d) {
                     if (!stack.empty()) out.push_back(cand.items[d].node);
                   });
        return out;
      });
}

std::vector<xml::Node*> SemiJoinAncestorsRuid(
    const core::Ruid2Scheme& scheme, const std::vector<xml::Node*>& candidates,
    const std::vector<xml::Node*>& context, bool or_self) {
  return WithSortedChains(
      scheme, candidates, context,
      [or_self](const auto& cand, const auto& ctx) {
        std::vector<char> marked(cand.items.size(), 0);
        ChainMerge(cand, ctx, or_self,
                   [&](const std::vector<size_t>& stack, size_t) {
                     // Everything below a marked entry was on the stack
                     // when it was marked, so the walk stops there: each
                     // candidate is marked once.
                     for (size_t i = stack.size(); i-- > 0;) {
                       if (marked[stack[i]]) break;
                       marked[stack[i]] = 1;
                     }
                   });
        std::vector<xml::Node*> out;
        for (size_t i = 0; i < cand.items.size(); ++i) {
          if (marked[i]) out.push_back(cand.items[i].node);
        }
        return out;
      });
}

JoinResult StructuralJoinRuidByName(const core::Ruid2Scheme& scheme,
                                    const NameIndex& index,
                                    std::string_view ancestor_name,
                                    std::string_view descendant_name) {
  return StructuralJoinRuid(scheme, index.Lookup(ancestor_name),
                            index.Lookup(descendant_name));
}

Result<JoinResult> StructuralJoinRuidFromStore(
    const core::Ruid2Scheme& scheme, storage::ElementStore* store,
    std::string_view ancestor_name, std::string_view descendant_name) {
  auto gather = [&](std::string_view name,
                    std::vector<xml::Node*>* out) -> Status {
    return store->ScanNameTerm(name, [&](const storage::ElementRecord& rec) {
      xml::Node* node = scheme.NodeById(rec.id);
      if (node != nullptr) out->push_back(node);
      return true;
    });
  };
  std::vector<xml::Node*> ancestors, descendants;
  RUIDX_RETURN_NOT_OK(gather(ancestor_name, &ancestors));
  RUIDX_RETURN_NOT_OK(gather(descendant_name, &descendants));
  return StructuralJoinRuid(scheme, std::move(ancestors),
                            std::move(descendants));
}

Result<JoinResult> StructuralJoinRuidFromSnapshot(
    const core::Ruid2Scheme& scheme, storage::StoreSnapshot* snapshot,
    std::string_view ancestor_name, std::string_view descendant_name) {
  auto gather = [&](std::string_view name,
                    std::vector<xml::Node*>* out) -> Status {
    return snapshot->ScanNameTerm(name,
                                  [&](const storage::ElementRecord& rec) {
                                    xml::Node* node = scheme.NodeById(rec.id);
                                    if (node != nullptr) out->push_back(node);
                                    return true;
                                  });
  };
  std::vector<xml::Node*> ancestors, descendants;
  RUIDX_RETURN_NOT_OK(gather(ancestor_name, &ancestors));
  RUIDX_RETURN_NOT_OK(gather(descendant_name, &descendants));
  return StructuralJoinRuid(scheme, std::move(ancestors),
                            std::move(descendants));
}

JoinResult StructuralJoinInterval(const scheme::XissScheme& scheme,
                                  std::vector<xml::Node*> ancestors,
                                  std::vector<xml::Node*> descendants) {
  auto less = [&scheme](const xml::Node* a, const xml::Node* b) {
    return scheme.label(a).order < scheme.label(b).order;
  };
  std::sort(ancestors.begin(), ancestors.end(), less);
  std::sort(descendants.begin(), descendants.end(), less);
  JoinResult out;
  StackMerge(
      ancestors.size(), descendants.size(),
      [&](size_t a, size_t d) { return less(ancestors[a], descendants[d]); },
      [&](size_t a, size_t b) {
        return scheme.IsAncestor(ancestors[a], ancestors[b]);
      },
      [&](size_t a, size_t d) {
        return scheme.IsAncestor(ancestors[a], descendants[d]);
      },
      [&](const std::vector<size_t>& stack, size_t d) {
        for (size_t a : stack) out.emplace_back(ancestors[a], descendants[d]);
      });
  return out;
}

JoinResult StructuralJoinNestedLoop(std::vector<xml::Node*> ancestors,
                                    std::vector<xml::Node*> descendants) {
  JoinResult out;
  for (xml::Node* d : descendants) {
    for (xml::Node* a : ancestors) {
      if (d->HasAncestor(a)) out.emplace_back(a, d);
    }
  }
  return out;
}

}  // namespace xpath
}  // namespace ruidx
