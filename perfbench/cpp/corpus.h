// Set-up: the seeded input document, serialized to bytes, and the oracle
// answers every timed operation is checked against. The oracle is computed
// on its own parse of the bytes with the DOM evaluator and the nested-loop
// join, and names nodes by preorder position, so it shares no state with the
// documents and stores the measured code builds.
#ifndef PERFBENCH_CPP_CORPUS_H_
#define PERFBENCH_CPP_CORPUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "xml/dom.h"

namespace perfbench {

/// Preorder positions of `nodes` in the tree rooted at the document's root
/// element (attributes excluded, as in xml::PreorderTraverse).
using PreorderMap = std::vector<uint32_t>;  // serial -> position

PreorderMap MapPreorder(ruidx::xml::Document* doc);

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

struct Corpus {
  std::string xml;  // the serialized input; the program under test gets this
  uint64_t nodes = 0;
  uint64_t elements = 0;

  std::vector<std::string> queries;
  /// Per query (and per join pair): its share of the class's operations.
  std::vector<int> query_weights;
  std::vector<std::vector<uint32_t>> query_answers;

  std::vector<std::pair<std::string, std::string>> join_pairs;
  std::vector<int> join_weights;
  std::vector<PairList> join_answers;
};

/// Generates the document from `seed` and computes the oracle. Exits
/// through SetupFailure when any step fails.
Corpus BuildCorpus(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_CORPUS_H_
