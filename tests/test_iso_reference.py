"""The isomorphism search against its earlier form.

``find_isomorphism`` checks, after mapping a vertex, only the facets at
that vertex.  The reference below is the search as it was before, which
scanned every facet of the first complex at each node; both must give
the same maps, the same ``None`` results and the same node counts, so
they raise ``IsomorphismInconclusive`` at the same budgets.

On two connected closed pseudomanifolds the search resolves a branch
once it maps a whole facet; the reference resolves it by looking the
partial map up among every isomorphism (``all_isomorphisms``).
"""

import pytest

from pseudoform import complexes, generators as gen, moves
from pseudoform.complexes import SimplicialComplex, _vertex_keys
from pseudoform.errors import IsomorphismInconclusive

from conftest import all_isomorphisms, extension, flood_ready, shuffled


def reference_search(K1, K2):
    """(mapping or None, nodes visited), scanning every facet per node."""
    if K1.dimension != K2.dimension or len(K1.facets) != len(K2.facets):
        return None, 0
    if len(K1.vertices) != len(K2.vertices):
        return None, 0
    for d in range(K1.dimension + 1):
        if len(K1.faces(d)) != len(K2.faces(d)):
            return None, 0
    ready = flood_ready(K1)
    if ready != flood_ready(K2):
        return None, 0
    keys1, keys2 = _vertex_keys(K1), _vertex_keys(K2)
    if sorted(keys1.values()) != sorted(keys2.values()):
        return None, 0
    isos = all_isomorphisms(K1, K2) if ready else []
    classes2: dict = {}
    for v, k in keys2.items():
        classes2.setdefault(k, []).append(v)
    order = sorted(K1.vertices, key=lambda v: (len(classes2[keys1[v]]), v))
    facets1 = sorted(K1.facets, key=lambda F: sorted(F))
    adj1, adj2 = K1.adjacency, K2.adjacency
    if not order:
        return {}, 0
    mapping: dict = {}
    used: set = set()
    nodes = 0
    stack = [iter(sorted(classes2[keys1[order[0]]]))]
    while stack:
        v = order[len(stack) - 1]
        if v in mapping:
            used.discard(mapping.pop(v))
        for w in stack[-1]:
            if w in used:
                continue
            nodes += 1
            if not all((u in adj1[v]) == (mu in adj2[w])
                       for u, mu in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            facet_ok, full = True, False
            for F in facets1:
                if v in F and all(x in mapping for x in F):
                    full = True
                    if frozenset(mapping[x] for x in F) not in K2.facets:
                        facet_ok = False
                        break
            if facet_ok and ready and full:  # resolved: one completion at most
                resolved = extension(isos, mapping)
                if resolved is not None:
                    return dict(resolved), nodes
            elif facet_ok:
                break
            del mapping[v]
            used.discard(w)
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            return dict(mapping), nodes
        stack.append(iter(sorted(classes2[keys1[order[len(stack)]]])))
    return None, nodes


def folded(K):
    s1, s2, psi = gen.find_admissible_fold(K)
    return moves.edge_fold(K, s1, s2, dict(psi))[0]


PAIRS = {
    "staircase8": lambda fx: (gen.staircase_sphere(8),
                              shuffled(gen.staircase_sphere(8), 1)),
    # 8,248 nodes: the search backtracks
    "staircase32": lambda fx: (shuffled(gen.staircase_sphere(32), 11),
                               shuffled(gen.staircase_sphere(32), 1)),
    "spine10": lambda fx: (gen.spine_path_sphere(10),
                           shuffled(gen.spine_path_sphere(10), 2)),
    "cross": lambda fx: (gen.cross_polytope(), shuffled(gen.cross_polytope(), 3)),
    "folded": lambda fx: (fx("folded_g2_4"), shuffled(fx("folded_g2_4"), 4)),
    # same face counts, not isomorphic
    "staircase_vs_spine": lambda fx: (gen.staircase_sphere(9),
                                      gen.spine_path_sphere(9)),
    "folds_of_spine": lambda fx: (folded(gen.spine_path_sphere(8)),
                                  shuffled(folded(gen.spine_path_sphere(8)), 5)),
    "chain": lambda fx: (fx("chain9"), shuffled(fx("chain9"), 6)),
    "empty": lambda fx: (SimplicialComplex([]), SimplicialComplex([])),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_search_matches_the_full_facet_scan(name, fx):
    K1, K2 = PAIRS[name](fx)
    want, nodes = reference_search(K1, K2)
    assert complexes.find_isomorphism(K1, K2) == want
    # the node count is the smallest budget the search completes within
    for budget in (nodes, nodes + 1, 10 * nodes):
        assert complexes.find_isomorphism(K1, K2, node_budget=budget) == want
    for budget in {nodes - 1, nodes // 2, 1} - {nodes}:
        if budget >= 0 and budget < nodes:
            with pytest.raises(IsomorphismInconclusive):
                complexes.find_isomorphism(K1, K2, node_budget=budget)
