"""The isomorphism search that counts the candidates it skips, and the
vertex-link classifier read off the facets at a vertex.

``find_isomorphism`` no longer tries, one by one, the candidate images
whose adjacency to the images already chosen disagrees: it counts them
and looks only at the candidates that agree.  ``reference_walk`` below
is the search that tries every candidate, with its budget; both must
give the same maps, the same ``None`` results and the same node counts,
so they raise ``IsomorphismInconclusive`` at the same budgets.

On two connected closed pseudomanifolds the search resolves a branch
once it maps a whole facet; the reference walk resolves it by looking
the partial map up among every isomorphism (``all_isomorphisms``), and
the search's map must be the least isomorphism along its vertex order.

``_vertex_link_class`` and ``_vertex_keys`` read the link of a vertex
off the facets at it, and ``Surface.classify`` skips the orientation
sweep when chi = 2.  The references here build the link complex and
always sweep; both must give the same classes, keys and error texts.
"""

import itertools
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pseudoform import complexes, generators as gen, moves, surfaces
from pseudoform.complexes import SimplicialComplex, _vertex_keys, _vertex_link_class
from pseudoform.errors import IsomorphismInconclusive, PseudoformError

from conftest import (COMPLEX_FIXTURES, all_isomorphisms, extension, flood_ready, fold_rung,
                      shuffled, walk_states)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


# ---------------------------------------------------------- references


def reference_walk(K1, K2, budget):
    """(mapping or None, nodes): the search trying every unused
    candidate with a scan of the mapping; raises past ``budget``."""
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
    by_vertex1 = K1._facets_by_vertex()
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
            if nodes > budget:
                raise IsomorphismInconclusive(f"past {budget}")
            if not all((u in adj1[v]) == (mu in adj2[w]) for u, mu in mapping.items()):
                continue
            mapping[v] = w
            used.add(w)
            full = [F for F in by_vertex1[v] if all(x in mapping for x in F)]
            if ready and full:  # resolved: one completion at most
                resolved = extension(isos, mapping)
                if resolved is not None:
                    return dict(resolved), nodes
            elif all(frozenset(mapping[x] for x in F) in K2.facets for F in full):
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


def outcome(search, *args):
    try:
        return search(*args)
    except PseudoformError as e:
        return type(e).__name__, str(e)


def assert_same_search(K1, K2, budget):
    """The search agrees with the reference walk: with the same map or
    None and the same node count when the walk completes within
    ``budget``, and inconclusive when it does not."""
    try:
        want, nodes = reference_walk(K1, K2, budget)
    except IsomorphismInconclusive:
        with pytest.raises(IsomorphismInconclusive):
            complexes.find_isomorphism(K1, K2, node_budget=budget)
        return
    # the node count is the smallest budget the search completes within
    assert complexes.find_isomorphism(K1, K2, node_budget=nodes) == want
    if nodes:
        with pytest.raises(IsomorphismInconclusive):
            complexes.find_isomorphism(K1, K2, node_budget=nodes - 1)
    if flood_ready(K1) and flood_ready(K2):
        assert want == least_isomorphism(K1, K2)


def reference_link_class(K, v):
    """The link complex as a surface, always swept for orientation."""
    S = surfaces.Surface(K.link((v,)).facets)
    orient = surfaces._orientable(S.triangles)
    chi = S.euler_characteristic
    return surfaces.SurfaceClass(surfaces._classify(chi, orient), chi, orient)


def reference_keys(K):
    base = {}
    for v in K.vertices:
        lk = K.link((v,))
        counts = tuple(len(lk.faces(d)) for d in range(max(lk.dimension + 1, 1)))
        kind = ""
        if lk.dimension == 2:
            try:
                kind = reference_link_class(K, v).kind
            except PseudoformError:
                kind = "?"
        base[v] = (len(K.neighbors(v)), counts, kind)
    return {v: (base[v], tuple(sorted(base[u] for u in K.neighbors(v))))
            for v in K.vertices}


def least_isomorphism(K1, K2):
    """The least of ``all_isomorphisms`` in the images along the search's
    vertex order (rarest class of ``reference_keys`` first), or None."""
    keys1, keys2 = reference_keys(K1), reference_keys(K2)
    sizes = Counter(keys2.values())
    order = sorted(K1.vertices, key=lambda v: (sizes[keys1[v]], v))
    return min(all_isomorphisms(K1, K2), key=lambda phi: [phi[v] for v in order],
               default=None)


def assert_same_links(K):
    for v in sorted(K.vertices):
        assert outcome(_vertex_link_class, K, v) == outcome(reference_link_class, K, v)
    assert _vertex_keys(K) == reference_keys(K)


# ------------------------------------------------------------- corpus


def walk(seed, fold, budget):
    """A random walk of the corpus spec at another budget."""
    return gen.generate(gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", budget), ("allow_fold", fold),
        ("g2_cap", 4 if fold else 9),
    )))


def cone(triangles, apex):
    return SimplicialComplex(frozenset(t) | {apex} for t in triangles)


def tube_sphere():
    """A 2-sphere in which the caps 0 and 1 are at distance 3: two
    hexagons 10.. and 20.. joined by a band, each capped."""
    tris = []
    for i in range(6):
        a, a2, b, b2 = 10 + i, 10 + (i + 1) % 6, 20 + i, 20 + (i + 1) % 6
        tris += [(0, a, a2), (a, a2, b), (a2, b, b2), (1, b, b2)]
    return tris


PINCHED = [tuple(0 if x == 1 else x for x in t) for t in tube_sphere()]
TETRA = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

# 3-complexes whose link at 99 (or 0) is not a 2-sphere
ODD_LINKS = {
    # a sphere with its two caps identified: chi = 1, orientable, Other
    "pinched": cone(PINCHED, 99),
    "sphere": cone(tube_sphere(), 99),
    # two tetrahedron boundaries sharing vertex 0: link in two pieces
    "disconnected": SimplicialComplex(
        [frozenset(range(5)) - {x} for x in range(5)]
        + [frozenset((0, 5, 6, 7, 8)) - {x} for x in (5, 6, 7, 8)]),
    # one tetrahedron: every link edge in one triangle
    "edge_in_one": SimplicialComplex([(0, 1, 2, 3)]),
    # three tetrahedra on one triangle: the link edge 12 in three
    "edge_in_three": SimplicialComplex([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)]),
    # the cone over the 7-vertex torus
    "torus": cone([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
                  + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)], 99),
}


def pinched_torus_and_sphere():
    """A closed 3-complex whose triangles each lie in two facets and
    whose vertex 100 has the link of a torus and a 2-sphere apart
    (chi = 2, two pieces).

    The suspension of the 7-vertex torus (poles 100 and 101), summed with
    ``staircase_sphere(4)`` at a facet at the south pole 101, with the
    north pole then identified with a vertex at distance 3 from it, so
    that no two faces merge."""
    torus = ODD_LINKS["torus"].link((99,)).facets
    K = SimplicialComplex(t | {pole} for t in torus for pole in (100, 101))
    stacked = gen.staircase_sphere(4).relabeled({v: 200 + v for v in range(8)})
    sigma1 = min((F for F in K.facets if 101 in F), key=sorted)
    sigma2 = min(stacked.facets, key=sorted)
    K = moves.connected_sum(K, sigma1, stacked, sigma2,
                            dict(zip(sorted(sigma1), sorted(sigma2))))[0]
    far, seen = {100}, {100}
    for _ in range(3):
        far = {u for x in far for u in K.neighbors(x)} - seen
        seen |= far
    return K.relabeled({max(far): 100})


LOW_DIMENSIONAL = {
    "tetra_boundary": SimplicialComplex(TETRA),
    "pinched_surface": SimplicialComplex(PINCHED),
    "triangle": SimplicialComplex([(0, 1, 2)]),
    "graph": SimplicialComplex([(0, 1), (1, 2), (2, 0), (2, 3)]),
    "points": SimplicialComplex([(0,), (1,)]),
    "empty": SimplicialComplex([]),
}


# ------------------------------------------------- the counted search


@pytest.mark.parametrize("budget", ["x", 2.5, None, True])
def test_a_budget_that_is_not_an_integer_is_refused(budget):
    K = gen.staircase_sphere(3)
    with pytest.raises(PseudoformError, match="node_budget must be an integer") as e:
        complexes.find_isomorphism(K, K, node_budget=budget)
    assert not isinstance(e.value, IsomorphismInconclusive)


def test_a_negative_budget_is_inconclusive():
    K = gen.staircase_sphere(3)
    with pytest.raises(IsomorphismInconclusive):
        complexes.find_isomorphism(K, K, node_budget=-1)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("ladder", ["staircase", "spine"])
def test_bench_pairs_match_the_reference_walk(ladder, n):
    """The benchmark's isomorphism pairs of a ladder rung: each resolves
    within 8 to 48 nodes.  Without the resolution step the search
    backtracked for 217 to 12,404 nodes at 32 and needed more than
    500,000 at 64."""
    K = gen.staircase_sphere(n) if ladder == "staircase" else fold_rung(n)
    for one, other in workloads.ladder_variants(K.canonical_facets(), n)["iso_pairs"]:
        K1, K2 = SimplicialComplex(one), SimplicialComplex(other)
        for budget in (4_999, 5_000, 49_999, 50_000):
            assert_same_search(K1, K2, budget)


@pytest.mark.parametrize("name", ["staircase12", "folded_spine8", "cross"])
def test_flooding_one_facet_finds_exactly_the_isomorphisms(name, fx):
    """``_flood`` from the least facet onto every facet, in each vertex
    order, keeps the automorphisms that the reference enumeration finds,
    and sends no facet onto four vertices that span none."""
    K = fx("cross_polytope") if name == "cross" else GENERATED[name]()
    ridges = complexes._ridge_index(K)
    F = sorted(min(K.facets, key=sorted))
    got = []
    for image in itertools.permutations(sorted(K.vertices), 4):
        phi = complexes._flood(frozenset(F), dict(zip(F, image)), ridges, ridges, K.facets)
        if phi is not None:
            assert frozenset(image) in K.facets
            got.append(phi)
    want = all_isomorphisms(K, K)
    assert len(got) == len(want) > 0
    assert sorted(map(sorted, (p.items() for p in got))) == sorted(
        map(sorted, (p.items() for p in want)))


def bench_pairs(n):
    """The isomorphism pairs of both benchmark ladders at rung ``n``."""
    for K in (gen.staircase_sphere(n), fold_rung(n)):
        for one, other in workloads.ladder_variants(K.canonical_facets(), n)["iso_pairs"]:
            yield SimplicialComplex(one), SimplicialComplex(other)


def test_largest_bench_pairs_resolve_within_a_small_budget():
    """A count guard, free of timing: every isomorphism pair of the 64
    rungs is solved within 5,000 nodes (it took more than 500,000 before
    branches were resolved at their first whole facet)."""
    for K1, K2 in bench_pairs(64):
        found = complexes.find_isomorphism(K1, K2, node_budget=5_000)
        assert {frozenset(found[x] for x in F) for F in K1.facets} == K2.facets


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_bench_pair_links_match_the_link_complex(n):
    for K1, K2 in bench_pairs(n):
        assert_same_links(K1)
        assert_same_links(K2)


GENERATED = {
    "staircase12": lambda: gen.staircase_sphere(12),
    "staircase24": lambda: gen.staircase_sphere(24),
    "spine10": lambda: gen.spine_path_sphere(10),
    "folded_spine8": lambda: fold_rung(8),
    "folded_spine20": lambda: fold_rung(20),
}
CORPUS = [*COMPLEX_FIXTURES, *GENERATED]


@given(st.sampled_from(CORPUS), st.integers(0, 2**16), st.booleans(), st.data())
def test_relabelings_and_one_facet_edits_match_the_reference(fx, name, seed, drop, data):
    """A corpus complex against a relabeling of itself, or, with one
    facet dropped from each side, against a relabeling with another
    facet dropped: equal face counts, isomorphic or not."""
    K = GENERATED[name]() if name in GENERATED else fx(name)
    K1, K2 = K, K
    if drop:
        facets = sorted(K.facets, key=sorted)
        K1, K2 = (SimplicialComplex(K.facets - {data.draw(st.sampled_from(facets))})
                  for _ in range(2))
    assert_same_search(K1, shuffled(K2, seed), 20_000)


# --------------------------------------------- one vertex-link classifier


@pytest.mark.parametrize("name", COMPLEX_FIXTURES)
def test_fixture_links_match_the_link_complex(name, fx):
    assert_same_links(fx(name))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_ladder_links_match_the_link_complex(n):
    assert_same_links(gen.staircase_sphere(n))
    assert_same_links(fold_rung(n))


@pytest.mark.parametrize("seed,fold", [(s, f) for s in range(6) for f in (False, True)]
                         + [(2, True), (14, True)])
def test_walk_state_links_match_the_link_complex(seed, fold):
    for K in walk_states(walk(seed, fold, 12)):
        assert_same_links(K)


@pytest.mark.parametrize("name", sorted(ODD_LINKS))
def test_odd_links_match_the_link_complex(name):
    assert_same_links(ODD_LINKS[name])


def test_pinched_vertex_with_chi_two_is_not_a_sphere():
    """The keys' sphere shortcut (chi = 2 and triangles connected across
    the link's edges) must not call a link made of a torus and a sphere
    a sphere."""
    K = pinched_torus_and_sphere()
    assert all(len(K._cofacets(t)) == 2 for t in K.faces(2))
    lk = K.link((100,))
    assert len(lk.faces(0)) - len(lk.faces(1)) + len(lk.faces(2)) == 2
    assert len(lk.connected_components()) == 2
    assert outcome(_vertex_link_class, K, 100) == ("NotSurfaceError",
                                                    "surface is not connected")
    assert_same_links(K)
    assert _vertex_keys(K)[100][0][2] == "?"
    assert_same_search(K, shuffled(K, 7), 20_000)


def test_odd_links_reach_every_outcome():
    got = {name: outcome(_vertex_link_class, K, 99 if 99 in K.vertices else 0)
           for name, K in ODD_LINKS.items()}
    assert got["pinched"] == surfaces.SurfaceClass(surfaces.OTHER, 1, True)
    assert got["sphere"] == surfaces.SurfaceClass(surfaces.SPHERE, 2, True)
    assert got["torus"] == surfaces.SurfaceClass(surfaces.TORUS, 0, True)
    assert got["disconnected"] == ("NotSurfaceError", "surface is not connected")
    assert got["edge_in_one"][1].startswith("edges not in exactly two triangles")
    assert "((1, 2), 3)" in got["edge_in_three"][1]


@pytest.mark.parametrize("name", sorted(LOW_DIMENSIONAL))
def test_low_dimensional_links_match_the_link_complex(name):
    assert_same_links(LOW_DIMENSIONAL[name])


@pytest.mark.parametrize("name", sorted(ODD_LINKS) + sorted(LOW_DIMENSIONAL))
def test_searches_that_are_not_resolved_keep_their_counts(name):
    """Complexes with a boundary, a triangle in three facets or another
    dimension are searched to the end, as the reference walk does."""
    K = {**ODD_LINKS, **LOW_DIMENSIONAL}[name]
    assert not flood_ready(K)
    for seed in range(3):
        assert_same_search(K, shuffled(K, seed), 20_000)
