"""The move checks read links off the facet index: a differential test.

The link questions of the walk (is an edge link a circle, do two
endpoint links meet only in the edge link, do two closed stars meet in
one triangle, which triangles of a link are missing, is a link
connected) are answered from ``K._facets_by_vertex()`` and
``K._cofacets``.  The references below answer them as the code did
before, by building each link and star as a ``SimplicialComplex``.
Each pair must agree on every candidate: the same return value, or the
same exception class, message and details.  The inputs are every state
and every candidate complex of the benchmark's walk corpus, every
fixture, both ladders up to 16 blocks and a non-normal complex.
Mutants that drop one stage of the staged link condition, or the facet
test of the two-facets pair filter, must fail that comparison, and
generating the walks must build no face closure of a link.
"""

import itertools

import pytest

from pseudoform import complexes, generators as gen, moves
from pseudoform.complexes import SimplicialComplex, _link_connected, _vertex_link
from pseudoform.errors import MissingFaceError, MoveError, PseudoformError

from conftest import COMPLEX_FIXTURES, FOLD_WALK_SEEDS, SPHERE_WALK_SEEDS, fold_rung, walk_spec


# ---------------------------------------------------------- the references


def _all_faces(L):
    out = set()
    for d in range(L.dimension + 1):
        out |= L.faces(d)
    return frozenset(out)


def ref_contract_edge_check(K, e):
    u, v = sorted(e)
    L = K.link(e)
    if not L.is_connected() or any(len(nb) != 2 for nb in L.adjacency.values()):
        raise MoveError(f"link of edge ({u}, {v}) is not a circle")
    common = _all_faces(K.link((u,))) & _all_faces(K.link((v,)))
    extra = sorted(common - _all_faces(K.link(e)), key=sorted)
    if extra:
        raise MoveError(
            f"link condition fails at edge ({u}, {v}): "
            f"extra common faces {[tuple(sorted(f)) for f in extra]}",
            details=tuple(tuple(sorted(f)) for f in extra),
        )


def ref_contract_two_facets_check(K, u, v):
    for x in (u, v):
        if not frozenset((x,)) <= K.vertices:
            raise MissingFaceError(f"vertex {x} is not in the complex")
    if K.contains_face((u, v)):
        raise MoveError(f"vertices {u}, {v} are joined by an edge", details=(u, v))
    common = _all_faces(K.star((u,))) & _all_faces(K.star((v,)))
    tri = sorted((f for f in common if len(f) == 3), key=sorted)
    if len(tri) != 1:
        raise MoveError(
            f"stars of {u} and {v} meet in {len(tri)} triangles, need exactly 1",
            details=tuple(tuple(sorted(f)) for f in tri),
        )
    t = tri[0]
    expected = {t} | {frozenset(p) for p in itertools.combinations(sorted(t), 2)} | {
        frozenset((x,)) for x in t
    }
    stray = sorted((f for f in common if f not in expected), key=sorted)
    if stray:
        raise MoveError(
            f"stars of {u} and {v} meet outside one triangle: "
            f"{[tuple(sorted(f)) for f in stray]}",
            details=tuple(tuple(sorted(f)) for f in stray),
        )
    ball = K._cofacets(frozenset((u,))) + K._cofacets(frozenset((v,)))
    tri_count = {}
    for F in ball:
        for sub in itertools.combinations(sorted(F), 3):
            tri_count[frozenset(sub)] = tri_count.get(frozenset(sub), 0) + 1
    boundary = [s for s, cnt in tri_count.items() if cnt == 1]
    through = sorted((tuple(sorted(s)) for s in boundary if u in s or v in s))
    if through:
        raise MoveError(
            f"the boundary of the stars of {u} and {v} has triangles at "
            f"{u} or {v}: {through}; the stars do not form a ball",
            details=tuple(through),
        )
    return t, ball, boundary


def ref_insertion_candidates(K):
    return [(w, t) for w in sorted(K.vertices) for t in K.link((w,)).missing_faces(2)]


def ref_link_cycle_candidates(K):
    out = []
    for v in sorted(K.vertices):
        L = K.link((v,))
        cycles = (*L.faces(2), *L.missing_faces(2))
        out += [(v, c) for c in sorted(tuple(sorted(t)) for t in cycles)]
    return out


def ref_contraction_pair_candidates(K):
    return sorted({
        (min(u, v), max(u, v))
        for F in K.facets for u in F
        for G in K._cofacets(F - {u}) for v in G - F
    })


def ref_link_connected(K, f):
    """The edge test of ``validate_normal`` and of the reference
    ``normal_update``: no cofacet, or a connected link."""
    return not K._cofacets(f) or K.link(f).is_connected()


# ---------------------------------------------------------- the comparison


def outcome(check, K, *args):
    try:
        return "returned", check(K, *args)
    except PseudoformError as e:
        return type(e), str(e), getattr(e, "details", None)


def passing(check, K, candidates):
    return [c for c in candidates if outcome(check, K, *c)[0] == "returned"]


def assert_link_answers_agree(K):
    """Every link question the walk asks of ``K``, both ways."""
    contractible = []
    for e in sorted(K.faces(1), key=sorted):
        want = outcome(ref_contract_edge_check, K, e)
        assert outcome(moves._contract_edge_check, K, e) == want, sorted(e)
        if want[0] == "returned":
            contractible.append((tuple(sorted(e)), len(K._cofacets(e))))
    assert moves.contractible_edges(K) == contractible
    pairs = ref_contraction_pair_candidates(K)
    for u, v in pairs:
        got = outcome(moves._contract_two_facets_check, K, u, v)
        want = outcome(ref_contract_two_facets_check, K, u, v)
        assert got == want, (u, v)
    assert moves.contraction_pair_sites(K) == [
        (u, v, tuple(sorted(outcome(ref_contract_two_facets_check, K, u, v)[1][0])))
        for u, v in passing(ref_contract_two_facets_check, K, pairs)]
    insertion = ref_insertion_candidates(K)
    assert [(w, t) for w in sorted(K.vertices) for t in _vertex_link(K, w).holes] \
        == insertion
    assert moves.insertion_sites(K) == [
        (w, tuple(sorted(t))) for w, t in passing(moves._insert_check, K, insertion)]
    assert list(moves._iter_link_cycle_sites(K)) == ref_link_cycle_candidates(K)
    for f in [*K.faces(0), *K.faces(1)]:
        assert _link_connected(K, f) == ref_link_connected(K, f), sorted(f)


def assert_edge_tests_agree(K, K2):
    """The reference ``normal_update``'s edge test on the edges of the
    facets that differ between ``K`` and ``K2``, present in ``K2`` or
    not."""
    for F in K.facets ^ K2.facets:
        for e in map(frozenset, itertools.combinations(F, 2)):
            assert _link_connected(K2, e) == ref_link_connected(K2, e), sorted(e)


# ---------------------------------------------------------- the inputs


# The benchmark's walk corpus: sphere walks 100-199, fold walks 0-15,
# in groups of ten walks.
WALK_GROUPS = [[(s, False) for s in range(lo, lo + 10)] for lo in range(100, 200, 10)]
WALK_GROUPS += [[(s, True) for s in range(8)], [(s, True) for s in range(8, 16)]]


def walk_steps(seed, fold, monkeypatch):
    """The (state, candidate complex) pairs of one corpus walk: every
    state it visits with every complex it tries from there."""
    seen = []
    scope_update = gen._scope_update

    def watched(K, K2, rec, g2_cap):
        seen.append((K, K2))
        return scope_update(K, K2, rec, g2_cap)

    with monkeypatch.context() as m:
        m.setattr(gen, "_scope_update", watched)
        gen.generate(walk_spec(seed, fold))
    assert seen
    return seen


@pytest.mark.parametrize("walks", WALK_GROUPS, ids=lambda w: f"{w[0][0]}-{w[-1][0]}"
                         + ("-fold" if w[0][1] else ""))
def test_link_answers_agree_on_every_walk_step(walks, monkeypatch):
    """Every state a walk visits and every candidate complex it tries."""
    for seed, fold in walks:
        seen = walk_steps(seed, fold, monkeypatch)
        states = {id(K): K for K, _ in seen}
        for K in states.values():
            assert_link_answers_agree(K)
        for K, K2 in seen:
            assert_edge_tests_agree(K, K2)


# Mutants of the staged answers: the link condition without one of its
# stages (``moves._LINK_STAGES``), and the two-facets pair filter
# without its facet test.  The gate must fail each of them on the first
# walk group, which holds edges that only one stage refuses, for each
# stage, and pairs that only the facet test refuses.

def _without_stage(i):
    def mutant(monkeypatch):
        stages = moves._LINK_STAGES
        monkeypatch.setattr(moves, "_LINK_STAGES", stages[:i] + stages[i + 1:])
    mutant.__name__ = f"link_condition_without_stage_{i + 1}"
    return mutant


def pair_filter_without_facet_test(monkeypatch):
    """Three common neighbours pass, whether or not they span a facet with each centre."""
    def shared(K, u, v):
        t = K.adjacency[u] & K.adjacency[v]
        return t if len(t) == 3 else None
    monkeypatch.setattr(moves, "_shared_triangle", shared)


STAGE_MUTANTS = (*map(_without_stage, range(3)), pair_filter_without_facet_test)


@pytest.mark.parametrize("mutant", STAGE_MUTANTS, ids=lambda m: m.__name__)
def test_the_gate_fails_each_mutant_of_the_staged_answers(mutant, monkeypatch):
    states = {id(K): K for seed, fold in WALK_GROUPS[0]
              for K, _ in walk_steps(seed, fold, monkeypatch)}
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        for K in states.values():
            assert_link_answers_agree(K)


def test_walks_build_no_link_closure(monkeypatch):
    # the probes decide from the facet and edge index, and no refusal
    # reaches a caller: generating the corpus walks built 30,724 face
    # closures of links before
    calls = []
    closure = complexes._closure

    def counted(cells):
        calls.append(cells)
        return closure(cells)

    for module in (complexes, moves):
        monkeypatch.setattr(module, "_closure", counted)
    for seed, fold in [(s, False) for s in SPHERE_WALK_SEEDS] + [(s, True) for s in FOLD_WALK_SEEDS]:
        gen.generate(walk_spec(seed, fold))
    assert calls == []


@pytest.mark.parametrize("name", COMPLEX_FIXTURES)
def test_link_answers_agree_on_fixtures(name, fx):
    assert_link_answers_agree(fx(name))


@pytest.mark.parametrize("n", range(1, 17))
def test_link_answers_agree_on_the_staircase_ladder(n):
    assert_link_answers_agree(gen.staircase_sphere(n))


@pytest.mark.parametrize("n", range(6, 17))
def test_link_answers_agree_on_the_fold_ladder(n):
    assert_link_answers_agree(fold_rung(n))


def test_link_answers_agree_on_two_spheres_glued_at_a_vertex():
    K = SimplicialComplex(gen.boundary_simplex().facets
                          | gen.boundary_simplex(base=4).facets)
    assert not _link_connected(K, frozenset((4,)))
    assert_link_answers_agree(K)
    assert_edge_tests_agree(gen.boundary_simplex(), K)
