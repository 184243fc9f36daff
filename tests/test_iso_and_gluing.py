"""The isomorphism search without recursion, and gluings that build
their result once.

``find_isomorphism`` walks its search tree with an explicit stack, so
its depth is not bounded by the interpreter's recursion limit.
``moves._identify_facets``, which every connected sum, handle addition
and fold ends with, rewrites only the facets at the vertices of the
second facet and builds its result from the complex it is given, with
no fresh construction.
"""

import itertools
import sys

import pytest

from pseudoform import complexes, generators as gen, moves
from pseudoform.complexes import SimplicialComplex
from pseudoform.errors import (
    IsomorphismInconclusive,
    MalformedFacetError,
    MoveError,
)

from conftest import shuffled


def test_isomorphism_search_is_not_bounded_by_the_recursion_limit():
    # 204 vertices, so a recursive search would go 204 calls deep
    K = gen.staircase_sphere(200)
    K2 = shuffled(K, 3)
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(150)
        found = complexes.find_isomorphism(K, K2)
    finally:
        sys.setrecursionlimit(limit)
    assert {frozenset(found[x] for x in F) for F in K.facets} == K2.facets


def test_isomorphism_search_keeps_its_node_budget():
    K = gen.spine_path_sphere(8)
    K2 = shuffled(K, 1)
    # the first whole facet resolves the search, so it needs 4 nodes
    with pytest.raises(IsomorphismInconclusive, match="budget of 3 nodes"):
        complexes.find_isomorphism(K, K2, node_budget=3)
    assert complexes.find_isomorphism(K, K2, node_budget=4) is not None
    found = complexes.find_isomorphism(K, K2)
    assert {frozenset(found[x] for x in F) for F in K.facets} == K2.facets
    empty = SimplicialComplex(())
    assert complexes.find_isomorphism(empty, empty) == {}


def _identify_twice(K, sigma1, psi):
    """The identification as a relabeled copy, then the copy without
    the merged facet: two complexes."""
    back = {w: x for x, w in psi.items()}
    K2 = K.relabeled(back)
    if len(K2.facets) != len(K.facets) - 1:
        raise MoveError(
            "identification collapsed facets beyond the glued pair; "
            "the gluing map is not admissible"
        )
    return SimplicialComplex(K2.facets - {sigma1})


def _outcome(identify, K, sigma1, psi):
    try:
        return identify(K, sigma1, psi).facets
    except (MoveError, MalformedFacetError) as exc:
        return type(exc), str(exc)


def test_identify_facets_matches_relabel_then_rebuild(monkeypatch):
    K = gen.staircase_sphere(3)
    facets = K.canonical_facets()
    kinds = set()
    for s1, s2 in itertools.permutations(facets, 2):
        for image in itertools.permutations(s2):
            psi = {x: w for x, w in zip(s1, image) if x != w}
            sigma1 = frozenset(s1)
            want = _outcome(_identify_twice, K, sigma1, psi)
            assert _outcome(moves._identify_facets, K, sigma1, psi) == want
            kinds.add(want[0] if isinstance(want, tuple) else "ok")
    assert kinds == {"ok", MoveError, MalformedFacetError}

    built = []
    init = SimplicialComplex.__init__

    def counting(self, facets):
        built.append(self)
        init(self, facets)

    patched = []
    successor = SimplicialComplex._successor

    def recording(self, removed, added):
        removed, added = set(removed), set(added)
        patched.append((removed, added))
        return successor(self, removed, added)

    S = gen.spine_path_sphere(8)
    s1, s2, psi = gen.admissible_folds(S)[0]
    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    monkeypatch.setattr(SimplicialComplex, "_successor", recording)
    K2 = moves._identify_facets(
        S, frozenset(s1), {x: w for x, w in psi if x != w})
    assert not built
    ((removed, added),) = patched
    assert all(F & set(s2) for F in removed - {frozenset(s1)})
    assert K2.facets == (S.facets - removed) | added
