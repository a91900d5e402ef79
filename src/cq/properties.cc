#include "cq/properties.h"

#include <algorithm>

#include "base/union_find.h"
#include "cq/tableau.h"
#include "decomp/treewidth.h"
#include "hypergraph/acyclicity.h"

namespace cqa {

Digraph GraphOfQuery(const ConjunctiveQuery& q) {
  return HypergraphOfQuery(q).PrimalGraph();
}

Hypergraph HypergraphOfQuery(const ConjunctiveQuery& q) {
  Hypergraph h(q.num_variables());
  for (const Atom& a : q.atoms()) {
    h.AddEdge(a.vars);
  }
  return h;
}

int QueryTreewidth(const ConjunctiveQuery& q) {
  return ExactTreewidth(GraphOfQuery(q));
}

bool IsTreewidthAtMost(const ConjunctiveQuery& q, int k) {
  return TreewidthAtMost(GraphOfQuery(q), k);
}

std::vector<FreeComponent> FreeConnectedComponents(
    const ConjunctiveQuery& q) {
  const std::vector<Atom>& atoms = q.atoms();
  std::vector<bool> is_free(q.num_variables(), false);
  for (const int v : q.free_variables()) is_free[v] = true;
  UnionFind uf(static_cast<int>(atoms.size()));
  std::vector<int> first_atom(q.num_variables(), -1);
  for (size_t i = 0; i < atoms.size(); ++i) {
    for (const int v : atoms[i].vars) {
      if (is_free[v]) continue;
      if (first_atom[v] < 0) {
        first_atom[v] = static_cast<int>(i);
      } else {
        uf.Union(first_atom[v], static_cast<int>(i));
      }
    }
  }
  const std::vector<int> label = uf.DenseLabels();
  std::vector<FreeComponent> components(uf.num_sets());
  for (size_t i = 0; i < atoms.size(); ++i) {
    FreeComponent& c = components[label[i]];
    c.atoms.push_back(static_cast<int>(i));
    for (const int v : atoms[i].vars) {
      if (is_free[v] && std::find(c.free_vars.begin(), c.free_vars.end(),
                                  v) == c.free_vars.end()) {
        c.free_vars.push_back(v);
      }
    }
  }
  return components;
}

bool IsAcyclicQuery(const ConjunctiveQuery& q) {
  return IsAcyclic(HypergraphOfQuery(q));
}

bool IsHypertreeWidthAtMost(const ConjunctiveQuery& q, int k) {
  return HypertreeWidthAtMost(HypergraphOfQuery(q), k);
}

bool IsGeneralizedHypertreeWidthAtMost(const ConjunctiveQuery& q, int k) {
  return GeneralizedHypertreeWidthAtMost(HypergraphOfQuery(q), k);
}

bool IsGraphQuery(const ConjunctiveQuery& q) {
  return q.vocab()->num_relations() == 1 && q.vocab()->arity(0) == 2;
}

}  // namespace cqa
