#include "xpath/ruid_eval.h"

#include <algorithm>
#include <utility>

#include "xpath/eval_common.h"
#include "xpath/parser.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace xpath {

RuidEvaluator::RuidEvaluator(xml::Document* doc,
                             const core::Ruid2Scheme* scheme)
    : doc_(doc), scheme_(scheme), axes_(scheme) {}

std::vector<xml::Node*> RuidEvaluator::GenerateAxis(xml::Node* n, Axis axis) {
  std::vector<xml::Node*> out;
  // The document node is not labeled; its child/descendant axes hop to the
  // tree root and continue with identifier arithmetic from there.
  if (n->is_document()) {
    switch (axis) {
      case Axis::kChild:
        out = n->children();
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        if (axis == Axis::kDescendantOrSelf) out.push_back(n);
        for (xml::Node* c : n->children()) {
          out.push_back(c);
          if (scheme_->HasLabel(c)) {
            auto sub = axes_.Descendants(scheme_->label(c));
            out.insert(out.end(), sub.begin(), sub.end());
          }
        }
        break;
      default:
        break;  // no parent/siblings/etc. for the document node
    }
    ids_generated_ += out.size();
    return out;
  }
  if (n->is_attribute()) {
    // Only the parent axis leads anywhere from an attribute.
    if (axis == Axis::kParent || axis == Axis::kAncestorOrSelf ||
        axis == Axis::kAncestor) {
      xml::Node* owner = n->parent();
      if (axis == Axis::kAncestorOrSelf) out.push_back(n);
      if (axis == Axis::kParent) {
        out.push_back(owner);
      } else if (owner != nullptr && scheme_->HasLabel(owner)) {
        out.push_back(owner);
        auto up = axes_.Ancestors(scheme_->label(owner));
        out.insert(out.end(), up.begin(), up.end());
      }
    } else if (axis == Axis::kSelf) {
      out.push_back(n);
    }
    ids_generated_ += out.size();
    return out;
  }

  const core::Ruid2Id& id = scheme_->label(n);
  switch (axis) {
    case Axis::kSelf:
      out.push_back(n);
      break;
    case Axis::kAttribute:
      out = n->attributes();
      break;
    case Axis::kChild:
      out = axes_.Children(id);
      break;
    case Axis::kDescendant:
      out = axes_.Descendants(id);
      break;
    case Axis::kDescendantOrSelf:
      out.push_back(n);
      {
        auto sub = axes_.Descendants(id);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      break;
    case Axis::kParent: {
      auto p = scheme_->Parent(id);
      if (p.ok()) {
        xml::Node* parent = scheme_->NodeById(*p);
        if (parent != nullptr) out.push_back(parent);
      }
      break;
    }
    // Ancestor/ordering axes below resolve through Ruid2Scheme::Ancestors /
    // CompareIds, which serve the frame tail of each chain from the scheme's
    // AncestorPathCache (one memoized chain per area).
    case Axis::kAncestor:
      out = axes_.Ancestors(id);
      break;
    case Axis::kAncestorOrSelf:
      out.push_back(n);
      {
        auto up = axes_.Ancestors(id);
        out.insert(out.end(), up.begin(), up.end());
      }
      break;
    case Axis::kFollowingSibling:
      out = axes_.FollowingSiblings(id);
      break;
    case Axis::kPrecedingSibling:
      out = axes_.PrecedingSiblings(id);
      break;
    case Axis::kFollowing:
      out = axes_.Following(id);
      break;
    case Axis::kPreceding:
      out = axes_.Preceding(id);
      // rpreceding returns area-bulk order; reverse axes expect
      // nearest-first, which positional predicates rely on.
      std::sort(out.begin(), out.end(),
                [&](xml::Node* a, xml::Node* b) {
                  return scheme_->CompareIds(scheme_->label(a),
                                             scheme_->label(b)) > 0;
                });
      break;
  }
  ids_generated_ += out.size();
  return out;
}

bool RuidEvaluator::StepUsesIndex(
    const Step& step, const std::vector<xml::Node*>& context) const {
  if (name_index_ == nullptr) return false;
  if (step.test.kind != NodeTestKind::kName) return false;
  bool order_axis = false;
  switch (step.axis) {
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPreceding:
    case Axis::kFollowing:
      order_axis = true;
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      break;
    default:
      return false;  // cheap axes navigate directly
  }
  // Positional predicates count within each context node's axis order,
  // which the merged candidate pass cannot reproduce.
  for (const Predicate& p : step.predicates) {
    if (p.kind == Predicate::Kind::kPosition) return false;
  }
  if (order_axis) {
    // Navigating preceding/following costs ~document-size per context node
    // and ancestor navigation a climb per node plus a dedup; the merge
    // costs |candidates| + |context| and is essentially always cheaper.
    return true;
  }
  // A `//name` step rooted at the document node needs no filtering at
  // all — every candidate descends from the document — so the posting
  // list is the answer regardless of its size.
  if (context.size() == 1 && context[0]->is_document()) return true;
  // Descendant axes navigate subtree-locally, which is cheap; take the
  // candidate route only when the condition is specific (Sec. 3.5): the
  // merge reads every candidate and every context node once, and that
  // must stay well under one document scan.
  size_t candidates = name_index_->Lookup(step.test.name).size();
  return candidates + context.size() <= scheme_->label_count() / 4;
}

bool RuidEvaluator::TryPathIndexChain(const std::vector<Step>& steps,
                                      const xml::Node* context,
                                      std::vector<xml::Node*>* out) {
  if (path_index_ == nullptr || steps.empty()) return false;
  if (context == nullptr || !context->is_document()) return false;
  std::vector<std::string_view> names;
  names.reserve(steps.size());
  for (const Step& step : steps) {
    if (step.axis != Axis::kChild || !step.predicates.empty()) return false;
    if (step.test.kind != NodeTestKind::kName) return false;
    names.push_back(step.test.name);
  }
  // The index keys every node type by its tag chain; a name test only
  // admits elements (a PI whose target matches the leaf name must not
  // slip in).
  for (xml::Node* n : path_index_->LookupPath(names)) {
    if (n->is_element()) out->push_back(n);
  }
  ids_generated_ += out->size();
  return true;
}

bool RuidEvaluator::TryChildChainBackwards(const std::vector<Step>& steps,
                                           const xml::Node* context,
                                           std::vector<xml::Node*>* out) {
  if (name_index_ == nullptr || steps.empty()) return false;
  if (context == nullptr || !context->is_document()) return false;
  for (const Step& step : steps) {
    if (step.axis != Axis::kChild || !step.predicates.empty()) return false;
    if (step.test.kind != NodeTestKind::kName &&
        step.test.kind != NodeTestKind::kAnyName) {
      return false;
    }
  }
  if (steps.back().test.kind != NodeTestKind::kName) return false;

  // "We need only to list the grandparents, by applying rparent() twice, of
  // the elements of the type element2 and exclude those which are not of
  // the type element1" — generalized to any all-child chain.
  const std::vector<xml::Node*>& candidates =
      name_index_->Lookup(steps.back().test.name);
  ids_generated_ += candidates.size();
  for (xml::Node* candidate : candidates) {
    core::Ruid2Id id = scheme_->label(candidate);
    xml::Node* node = candidate;
    bool matches = true;
    for (size_t j = steps.size(); j-- > 0;) {
      if (node == nullptr || !MatchesTest(node, steps[j].test, Axis::kChild)) {
        matches = false;
        break;
      }
      if (j == 0) {
        // The first step selects children of the document node, i.e. the
        // main root: the climb must have ended exactly there.
        matches = id == core::Ruid2RootId();
        break;
      }
      auto parent = scheme_->Parent(id);
      if (!parent.ok()) {
        matches = false;
        break;
      }
      id = parent.MoveValueUnsafe();
      node = scheme_->NodeById(id);
    }
    if (matches) out->push_back(candidate);
  }
  return true;
}

std::vector<xml::Node*> RuidEvaluator::EvalStepViaIndex(
    std::vector<xml::Node*> context, const Step& step) {
  const std::vector<xml::Node*>& candidates =
      name_index_->Lookup(step.test.name);
  ids_generated_ += candidates.size();
  ++routes_.index_merge;
  // The document node sorts first. Every tree node descends from it, and it
  // has no ancestors, preceding or following nodes.
  bool has_document = !context.empty() && context.front()->is_document();
  if (has_document) context.erase(context.begin());
  std::vector<xml::Node*> on_axis;
  switch (step.axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      on_axis = has_document
                    ? candidates
                    : SemiJoinDescendantsRuid(
                          *scheme_, context, candidates,
                          step.axis == Axis::kDescendantOrSelf);
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      on_axis = SemiJoinAncestorsRuid(*scheme_, candidates, context,
                                      step.axis == Axis::kAncestorOrSelf);
      break;
    case Axis::kPreceding: {
      if (context.empty()) break;
      // preceding(C) = preceding(max C): a node that precedes some c in C
      // ends before c starts, so it also ends before max C starts.
      const core::Ruid2Id& last = scheme_->label(context.back());
      for (xml::Node* x : candidates) {
        const core::Ruid2Id& xid = scheme_->label(x);
        if (scheme_->CompareIds(xid, last) >= 0) break;
        if (!scheme_->IsAncestorId(xid, last)) on_axis.push_back(x);
      }
      break;
    }
    case Axis::kFollowing: {
      if (context.empty()) break;
      // following(C) = following(c*) for the context subtree that ends
      // first: the end of the leftmost ancestor chain of sorted C. The
      // first context node outside that chain starts after c*'s subtree,
      // and so does everything after it.
      const core::Ruid2Id* first_end = &scheme_->label(context.front());
      for (size_t i = 1; i < context.size(); ++i) {
        const core::Ruid2Id& id = scheme_->label(context[i]);
        if (!scheme_->IsAncestorId(*first_end, id)) break;
        first_end = &id;
      }
      for (xml::Node* x : candidates) {
        const core::Ruid2Id& xid = scheme_->label(x);
        if (scheme_->CompareIds(xid, *first_end) > 0 &&
            !scheme_->IsAncestorId(*first_end, xid)) {
          on_axis.push_back(x);
        }
      }
      break;
    }
    default:
      break;
  }
  std::erase_if(on_axis, [&](const xml::Node* x) {
    for (const Predicate& p : step.predicates) {
      if (!MatchesPredicate(x, p)) return true;
    }
    return false;
  });
  return on_axis;
}

namespace {

/// Fuses "descendant-or-self::node()/child::t" into "descendant::t" (exact
/// when the child step has no positional predicate — positions count per
/// parent there). This is what makes `//t` hit the name index.
std::vector<Step> FuseDescendantSteps(const std::vector<Step>& steps) {
  std::vector<Step> out;
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    bool is_dos_node = step.axis == Axis::kDescendantOrSelf &&
                       step.test.kind == NodeTestKind::kAnyNode &&
                       step.predicates.empty();
    if (is_dos_node && i + 1 < steps.size()) {
      const Step& next = steps[i + 1];
      bool positional = false;
      for (const Predicate& p : next.predicates) {
        positional |= p.kind == Predicate::Kind::kPosition;
      }
      if (next.axis == Axis::kChild && !positional) {
        Step fused = next;
        fused.axis = Axis::kDescendant;
        out.push_back(std::move(fused));
        ++i;
        continue;
      }
    }
    out.push_back(step);
  }
  return out;
}

}  // namespace

Result<std::vector<xml::Node*>> RuidEvaluator::Evaluate(
    const LocationPath& path, xml::Node* context) {
  if (context == nullptr) context = doc_->document_node();
  std::vector<Step> steps = FuseDescendantSteps(path.steps);
  if (path.absolute) {
    std::vector<xml::Node*> chain_result;
    if (TryPathIndexChain(path.steps, context, &chain_result)) {
      routes_.path_index_chain += path.steps.size();
      return chain_result;  // postings are kept in document order
    }
    if (TryChildChainBackwards(path.steps, context, &chain_result)) {
      routes_.child_chain_backwards += path.steps.size();
      return chain_result;  // candidates arrive in document order
    }
  }
  std::vector<xml::Node*> current{context};
  // True while `current` is a duplicate-free document-order set: index
  // merges emit that way, so a path whose last executed step was
  // index-evaluated skips the final identifier sort — for an unselective
  // `//name` the sort would otherwise cost more than the step itself.
  bool document_ordered = true;  // a single context node
  for (const Step& step : steps) {
    if (StepUsesIndex(step, current)) {
      // Attribute context nodes cannot be skipped silently on ancestor
      // axes; fall back when any are present.
      bool has_attribute_context = false;
      for (xml::Node* n : current) {
        has_attribute_context |= n->is_attribute();
      }
      if (!has_attribute_context) {
        // The merge walks the context in document order; a navigated set
        // is sorted once here.
        if (!document_ordered) SortDocumentOrder(&current);
        current = EvalStepViaIndex(std::move(current), step);
        document_ordered = true;
        if (current.empty()) break;
        continue;
      }
    }
    ++routes_.navigate;
    document_ordered = false;
    // Following axis results come in area-bulk order too; positional
    // predicates need axis order, so sort when one is present.
    bool needs_axis_order = false;
    for (const Predicate& p : step.predicates) {
      if (p.kind == Predicate::Kind::kPosition) needs_axis_order = true;
    }
    std::vector<xml::Node*> next;
    for (xml::Node* n : current) {
      std::vector<xml::Node*> axis_nodes = GenerateAxis(n, step.axis);
      if (needs_axis_order &&
          (step.axis == Axis::kFollowing || step.axis == Axis::kDescendant ||
           step.axis == Axis::kDescendantOrSelf)) {
        std::sort(axis_nodes.begin(), axis_nodes.end(),
                  [&](xml::Node* a, xml::Node* b) {
                    return scheme_->CompareIds(scheme_->label(a),
                                               scheme_->label(b)) < 0;
                  });
      }
      std::vector<xml::Node*> tested;
      tested.reserve(axis_nodes.size());
      for (xml::Node* x : axis_nodes) {
        if (MatchesTest(x, step.test, step.axis)) tested.push_back(x);
      }
      tested = ApplyPredicates(std::move(tested), step.predicates);
      next.insert(next.end(), tested.begin(), tested.end());
    }
    current = DedupNodes(std::move(next));
    if (current.empty()) break;
  }
  if (!document_ordered) SortDocumentOrder(&current);
  return current;
}

void RuidEvaluator::SortDocumentOrder(std::vector<xml::Node*>* nodes) const {
  // Document order by identifier comparison; attributes order just after
  // their owner element, in declaration order.
  auto order_key = [&](const xml::Node* n) -> const xml::Node* {
    return n->is_attribute() ? n->parent() : n;
  };
  std::sort(nodes->begin(), nodes->end(),
            [&](xml::Node* a, xml::Node* b) {
              const xml::Node* ka = order_key(a);
              const xml::Node* kb = order_key(b);
              if (ka != kb) {
                if (ka->is_document()) return true;
                if (kb->is_document()) return false;
                int c = scheme_->CompareIds(scheme_->label(ka),
                                            scheme_->label(kb));
                if (c != 0) return c < 0;
              }
              if (a->is_attribute() != b->is_attribute()) {
                return !a->is_attribute();
              }
              return a->serial() < b->serial();
            });
}

Result<std::vector<xml::Node*>> RuidEvaluator::Evaluate(const UnionExpr& expr,
                                                        xml::Node* context) {
  // A single-path "union" is already duplicate-free and document-ordered;
  // re-sorting it would throw away the ordered-result bookkeeping the
  // per-path evaluation just did.
  if (expr.paths.size() == 1) return Evaluate(expr.paths[0], context);
  std::vector<xml::Node*> merged;
  for (const LocationPath& path : expr.paths) {
    RUIDX_ASSIGN_OR_RETURN(std::vector<xml::Node*> part,
                           Evaluate(path, context));
    merged.insert(merged.end(), part.begin(), part.end());
  }
  merged = DedupNodes(std::move(merged));
  SortDocumentOrder(&merged);
  return merged;
}

Result<std::vector<xml::Node*>> RuidEvaluator::Evaluate(std::string_view path,
                                                        xml::Node* context) {
  RUIDX_ASSIGN_OR_RETURN(UnionExpr parsed, ParseUnion(path));
  return Evaluate(parsed, context);
}

}  // namespace xpath
}  // namespace ruidx
