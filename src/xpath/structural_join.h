// Structural (containment) joins: given a candidate ancestor set A and a
// candidate descendant set D, produce every (a, d) pair with a ancestor of
// d. This is the workhorse of relational XML query processing (Li & Moon
// [6]; Zhang et al. [11] in the paper's related work) and the natural
// consumer of a numbering scheme: the join condition is decided by
// identifiers alone.
//
// The ruid and interval joins share one stack-based skeleton (a single
// merge pass over both inputs in document order, maintaining the stack of
// currently open ancestors):
//   * ruid       — order and ancestorship from Ruid2 identifiers,
//   * interval   — order and ancestorship from XISS (order, size) labels,
//   * nested loop — the quadratic DOM baseline, used as ground truth.
// The ruid skeleton also answers the XPath evaluator's index-seeded steps
// as semi-joins (Sec. 3.5: candidates from the condition, the axis decided
// by identifiers alone): which candidates descend from, or are ancestors
// of, some context node.
#ifndef RUIDX_XPATH_STRUCTURAL_JOIN_H_
#define RUIDX_XPATH_STRUCTURAL_JOIN_H_

#include <string_view>
#include <utility>
#include <vector>

#include "core/ruid2.h"
#include "scheme/xiss.h"
#include "util/result.h"
#include "xml/dom.h"
#include "xpath/name_index.h"

namespace ruidx {
namespace storage {
class ElementStore;
class StoreSnapshot;
}  // namespace storage

namespace xpath {

using JoinResult = std::vector<std::pair<xml::Node*, xml::Node*>>;

/// Stack-based merge join over ruid identifiers. Inputs need not be sorted.
/// Pairs come out grouped by descendant, outer ancestors first.
JoinResult StructuralJoinRuid(const core::Ruid2Scheme& scheme,
                              std::vector<xml::Node*> ancestors,
                              std::vector<xml::Node*> descendants);

/// The candidates that descend from some context node (with `or_self`, or
/// are one), each once, in document order: descendant::name and
/// descendant-or-self::name over a whole context set in one merge pass.
/// Neither input need be sorted; name postings, which arrive in document
/// order, skip the sort.
std::vector<xml::Node*> SemiJoinDescendantsRuid(
    const core::Ruid2Scheme& scheme, const std::vector<xml::Node*>& context,
    const std::vector<xml::Node*>& candidates, bool or_self);

/// The candidates that are proper ancestors of some context node (with
/// `or_self`, or are one), each once, in document order: ancestor::name and
/// ancestor-or-self::name in one merge pass. The candidates are the stack
/// side; a candidate is marked when a context node falls inside it.
std::vector<xml::Node*> SemiJoinAncestorsRuid(
    const core::Ruid2Scheme& scheme, const std::vector<xml::Node*>& candidates,
    const std::vector<xml::Node*>& context, bool or_self);

/// Seeds both join inputs from the in-memory name index (Sec. 3.5's
/// "second approach" applied to the join: candidates come from the
/// condition, containment from identifier arithmetic) and runs the ruid
/// stack join — no document scan to gather either side.
JoinResult StructuralJoinRuidByName(const core::Ruid2Scheme& scheme,
                                    const NameIndex& index,
                                    std::string_view ancestor_name,
                                    std::string_view descendant_name);

/// Same seeding from the persistent name index: one posting-list scan per
/// side (ElementStore::ScanNameTerm), identifiers resolved to DOM nodes
/// through the scheme, then the ruid stack join. This is the query path the
/// on-disk secondary indexes exist for — the store is never enumerated.
Result<JoinResult> StructuralJoinRuidFromStore(
    const core::Ruid2Scheme& scheme, storage::ElementStore* store,
    std::string_view ancestor_name, std::string_view descendant_name);

/// The same index-seeded join against an MVCC view of the store
/// (ElementStore::OpenSnapshot): posting scans and record reads go through
/// the snapshot's committed pages, so the join neither blocks on a
/// concurrent Flush nor observes half-committed postings.
Result<JoinResult> StructuralJoinRuidFromSnapshot(
    const core::Ruid2Scheme& scheme, storage::StoreSnapshot* snapshot,
    std::string_view ancestor_name, std::string_view descendant_name);

/// Same skeleton over XISS interval labels.
JoinResult StructuralJoinInterval(const scheme::XissScheme& scheme,
                                  std::vector<xml::Node*> ancestors,
                                  std::vector<xml::Node*> descendants);

/// Quadratic DOM-pointer baseline (ground truth for tests and the
/// benchmark's lower bound).
JoinResult StructuralJoinNestedLoop(std::vector<xml::Node*> ancestors,
                                    std::vector<xml::Node*> descendants);

}  // namespace xpath
}  // namespace ruidx

#endif  // RUIDX_XPATH_STRUCTURAL_JOIN_H_
