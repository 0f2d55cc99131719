// Identifier-based XPath evaluation (Sec. 3.5 and Sec. 4 "Query
// evaluation"): axes are generated with the ruid routines — rparent,
// rancestor, rchildren, rdescendant, rpsibling, rfsibling, rpreceding,
// rfollowing — instead of pointer navigation. The attribute axis goes
// through the owner element (attributes are reached from, not labeled by,
// the numbering scheme, matching the paper's data model).
#ifndef RUIDX_XPATH_RUID_EVAL_H_
#define RUIDX_XPATH_RUID_EVAL_H_

#include <cstdint>
#include <vector>

#include "core/axes.h"
#include "core/ruid2.h"
#include "util/result.h"
#include "xml/dom.h"
#include "xpath/ast.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"

namespace ruidx {
namespace xpath {

class RuidEvaluator {
 public:
  /// The document and scheme must outlive the evaluator; the scheme must be
  /// built over the document's tree. Re-create (or Refresh) after updates.
  RuidEvaluator(xml::Document* doc, const core::Ruid2Scheme* scheme);

  /// Evaluates `path` against the context node (defaults to the document
  /// node). Result in document order (by identifier comparison), deduped.
  Result<std::vector<xml::Node*>> Evaluate(const LocationPath& path,
                                           xml::Node* context = nullptr);

  /// Union evaluation: merged, deduplicated, document order.
  Result<std::vector<xml::Node*>> Evaluate(const UnionExpr& expr,
                                           xml::Node* context = nullptr);

  /// Convenience: parse (union grammar) then evaluate.
  Result<std::vector<xml::Node*>> Evaluate(std::string_view path,
                                           xml::Node* context = nullptr);

  /// Rebuilds the axis index after a structural update.
  void Refresh() { axes_.Refresh(); }

  /// Enables the Sec. 3.5 "first approach" for selective steps: when a step
  /// has a name test and one of the big axes (descendant, ancestor,
  /// preceding, following), the evaluator takes the nodes with that name
  /// from the index and keeps those whose identifier passes the axis test.
  /// Descendant and ancestor steps (and their -or-self forms) are one
  /// document-order merge of the candidates against the whole context set
  /// (SemiJoinDescendantsRuid / SemiJoinAncestorsRuid); preceding and
  /// following reduce to a single context node, so each candidate is one
  /// identifier comparison. The index must outlive the evaluator and be
  /// rebuilt after updates. Pass nullptr to disable.
  void SetNameIndex(const NameIndex* index) { name_index_ = index; }

  /// Enables single-lookup answering of fully named absolute child chains
  /// (/a/b/c): the chain's tag-path term keys one posting list, so no step
  /// loop runs at all. The index must outlive the evaluator and be kept
  /// fresh via PathIndex::OnUpdate. Pass nullptr to disable.
  void SetPathIndex(const PathIndex* index) { path_index_ = index; }

  /// Location steps answered per route, counted as they run. A chain
  /// rewrite answers every step of its path at once and counts them all.
  struct RouteCounts {
    uint64_t path_index_chain = 0;       ///< TryPathIndexChain
    uint64_t child_chain_backwards = 0;  ///< TryChildChainBackwards
    uint64_t index_merge = 0;            ///< EvalStepViaIndex
    uint64_t navigate = 0;               ///< per-node GenerateAxis
  };

  /// Identifiers materialized while generating axes (work metric).
  uint64_t ids_generated() const { return ids_generated_; }
  const RouteCounts& route_counts() const { return routes_; }
  void ResetCounters() {
    ids_generated_ = 0;
    routes_ = RouteCounts{};
  }

 private:
  std::vector<xml::Node*> GenerateAxis(xml::Node* n, Axis axis);

  /// True when the step qualifies for name-index candidate filtering and
  /// the Sec. 3.5 selectivity rule favours it ("the first approach is good
  /// only for the cases in which C is specific"). The merge is priced
  /// linearly: a descendant step takes it while |candidates| + |context|
  /// stays within a quarter of the labeled nodes. A descendant step whose
  /// whole context is the document node is always index-answered: the
  /// posting list IS the result, no per-candidate arithmetic. Ancestor,
  /// preceding and following steps always take it.
  bool StepUsesIndex(const Step& step,
                     const std::vector<xml::Node*>& context) const;

  /// The Sec. 3.5 "element1/*/element2" trick: an absolute all-child-axis
  /// path with a name test at the end is answered backwards — take the
  /// candidates from the index and climb with rparent, checking each level's
  /// name test — without scanning any collection. Returns true and fills
  /// *out when the rewrite applies.
  bool TryChildChainBackwards(const std::vector<Step>& steps,
                              const xml::Node* context,
                              std::vector<xml::Node*>* out);

  /// Answers an absolute all-named child chain (/a/b/c, no predicates)
  /// straight from the path index: one term composition, one posting-list
  /// lookup. Strictly cheaper than the backwards climb, which this
  /// pre-empts when both rewrites apply. Returns true and fills *out when
  /// the rewrite applies.
  bool TryPathIndexChain(const std::vector<Step>& steps,
                         const xml::Node* context,
                         std::vector<xml::Node*>* out);

  /// Evaluates one indexable step over the whole context set, which must
  /// be in document order; the result is in document order too.
  std::vector<xml::Node*> EvalStepViaIndex(std::vector<xml::Node*> context,
                                           const Step& step);

  /// Sorts into document order by identifier comparison.
  void SortDocumentOrder(std::vector<xml::Node*>* nodes) const;

  xml::Document* doc_;
  const core::Ruid2Scheme* scheme_;
  core::RuidAxes axes_;
  const NameIndex* name_index_ = nullptr;
  const PathIndex* path_index_ = nullptr;
  uint64_t ids_generated_ = 0;
  RouteCounts routes_;
};

}  // namespace xpath
}  // namespace ruidx

#endif  // RUIDX_XPATH_RUID_EVAL_H_
