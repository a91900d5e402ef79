// Structural views of a CQ: its graph G(Q) (paper, Section 4), its
// hypergraph H(Q) (Section 6), and the membership predicates for the
// tractable classes studied in the paper.

#ifndef CQA_CQ_PROPERTIES_H_
#define CQA_CQ_PROPERTIES_H_

#include "cq/cq.h"
#include "decomp/hypertree.h"
#include "graph/digraph.h"
#include "hypergraph/hypergraph.h"

namespace cqa {

/// G(Q): nodes = variables; undirected edges {x_i, x_j} for every pair of
/// distinct variables co-occurring in an atom. Represented as a symmetric
/// digraph without loops.
Digraph GraphOfQuery(const ConjunctiveQuery& q);

/// H(Q): nodes = variables; one hyperedge per atom scope.
Hypergraph HypergraphOfQuery(const ConjunctiveQuery& q);

/// Treewidth of G(Q) (exact).
int QueryTreewidth(const ConjunctiveQuery& q);

/// treewidth(G(Q)) <= k: membership in the graph-based class TW(k).
bool IsTreewidthAtMost(const ConjunctiveQuery& q, int k);

/// H(Q) acyclic: membership in AC (= HTW(1)).
bool IsAcyclicQuery(const ConjunctiveQuery& q);

/// Hypertree width of H(Q) <= k: membership in HTW(k).
bool IsHypertreeWidthAtMost(const ConjunctiveQuery& q, int k);

/// Generalized hypertree width of H(Q) <= k: membership in GHTW(k).
bool IsGeneralizedHypertreeWidthAtMost(const ConjunctiveQuery& q, int k);

/// One free-connected component of a CQ body (FreeConnectedComponents).
struct FreeComponent {
  std::vector<int> atoms;      ///< indexes into q.atoms(), ascending
  std::vector<int> free_vars;  ///< distinct free variables it touches
};

/// The free-connected components of Q's body: two atoms share a component
/// when they share a non-free variable, transitively; free variables never
/// connect atoms. Components come in order of their first atom. Given an
/// answer tuple (free variables bound), the components constrain disjoint
/// sets of existential variables, so Q holds iff every component has a
/// witness on its own.
std::vector<FreeComponent> FreeConnectedComponents(const ConjunctiveQuery& q);

/// True over the graph vocabulary (single binary relation).
bool IsGraphQuery(const ConjunctiveQuery& q);

}  // namespace cqa

#endif  // CQA_CQ_PROPERTIES_H_
