"""One vertex-link classifier, read off the facet and triangle indexes:
a differential gate.

``complexes._link_shapes`` classes the link of each vertex from its counts:
the link is a closed connected surface when every triangle at the
vertex lies in two facets and the facets at it are connected across
those triangles, and then chi = V - E + T.  ``validate_normal`` reads
every vertex link off it, and tests link connectivity only where no
link class proves it.  ``reference_normality`` in ``conftest.py`` is
the full check it replaced: it builds each vertex link's Surface,
always sweeps it for orientation, and searches every vertex and edge
link for connectivity.

The gate: each report equals the reference field by field, and at
every vertex the classifier's class, or its refusal, equals the link
Surface's.  The inputs are every state of every corpus walk, the
fixtures, the staircase and fold rungs 8-64, the odd links and the
pinched link of ``tests/test_counted_search.py``, the complexes of
``tests/test_corner_cut.py`` that are not normal or have torus links,
and small random facet sets.  A mutant that skips the orientability
sweep, and one that drops the connectivity test, must each fail it.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from pseudoform import complexes, generators as gen, surfaces
from pseudoform.complexes import SimplicialComplex, validate_normal
from pseudoform.errors import PseudoformError

from conftest import (COMPLEX_FIXTURES, FOLD_WALK_SEEDS, SPHERE_WALK_SEEDS,
                      classifier_drops_the_connectivity_test, classifier_skips_the_sweep,
                      fold_rung, reference_link_class, reference_normality, walk_states)
from test_component_cut import not_normal_corpus
from test_corner_cut import TORUS_LINKS
from test_counted_search import ODD_LINKS, pinched_torus_and_sphere


def outcome(classify, K, v):
    try:
        return classify(K, v)
    except PseudoformError as e:
        return type(e).__name__, str(e)


def assert_gate(K):
    """The report and every vertex's class agree with the references, on
    a copy of ``K`` with cold caches."""
    K = SimplicialComplex(K.facets)
    assert validate_normal(K) == reference_normality(K)
    for v in sorted(K.vertices):
        want = outcome(reference_link_class, K, v)
        assert outcome(complexes._vertex_link_class, K, v) == want, v
        *counts, cls = complexes._link_shapes(K)[v]
        if isinstance(want, tuple):
            assert cls is None, v
        else:
            assert cls == want, v
            lk = surfaces.Surface(K.link((v,)).facets)
            assert counts == [len(lk.vertices), len(lk.edges), len(lk.triangles)], v


# ---------------------------------------------------------------- the inputs

GROUPS = {
    "fixtures": lambda fx, walk: [fx(name) for name in COMPLEX_FIXTURES],
    "ladders": lambda fx, walk: [L(n) for n in (8, 16, 32, 64)
                                 for L in (gen.staircase_sphere, fold_rung)],
    "odd": lambda fx, walk: [*ODD_LINKS.values(), pinched_torus_and_sphere(), TORUS_LINKS],
    "notnormal": lambda fx, walk: not_normal_corpus(walk),
    "foldwalks": lambda fx, walk: [
        K for s in FOLD_WALK_SEEDS for K in walk_states(walk(s, True))],
}
# the benchmark's sphere walks, every state
for _lo in range(SPHERE_WALK_SEEDS.start, SPHERE_WALK_SEEDS.stop, 25):
    GROUPS[f"walks{_lo}"] = (lambda fx, walk, lo=_lo: [
        K for s in range(lo, lo + 25) for K in walk_states(walk(s, False))])


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_reports_and_classes_match_the_reference(group, fx, walk):
    for K in GROUPS[group](fx, walk):
        assert_gate(K)


@st.composite
def small_complexes(draw):
    """A random set of at most 14 facets on 7 vertices, or a stacked
    sphere with two vertices that share no edge identified."""
    if draw(st.booleans()):
        quads = st.frozensets(st.integers(0, 6), min_size=4, max_size=4)
        return SimplicialComplex(draw(st.lists(quads, min_size=1, max_size=14)))
    K = gen.staircase_sphere(draw(st.integers(2, 6)))
    u, w = draw(st.sampled_from([(u, w) for u, w in itertools.combinations(sorted(K.vertices), 2)
                                 if w not in K.neighbors(u)]))
    return SimplicialComplex(K.relabeled({w: u}).facets)


@given(small_complexes())
def test_small_complexes_match_the_reference(K):
    assert_gate(K)


def test_the_inputs_reach_every_outcome(fx, walk):
    """Between them the inputs have singular vertices of every class,
    refused links and disconnected vertex and edge links."""
    reports = [validate_normal(K) for group in ("fixtures", "odd", "notnormal")
               for K in GROUPS[group](fx, walk)]
    kinds = {cls.kind for r in reports for _, cls in r.singular_vertices}
    assert kinds == {surfaces.RP2, surfaces.TORUS, surfaces.OTHER}
    assert any(len(f) == 1 for r in reports for f in r.disconnected_links)
    assert any(len(f) == 2 for r in reports for f in r.disconnected_links)
    assert any(r.ridge_failures for r in reports)
    assert any(r.bad_links and not r.disconnected_links for r in reports)


# ----------------------------------------------------------------- mutants

MUTANTS = {
    classifier_skips_the_sweep: ("pinched", "torus"),
    classifier_drops_the_connectivity_test: ("pinched_torus_and_sphere",),
}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.__name__)
def test_the_gate_fails_on_a_mutant(mutant, monkeypatch):
    inputs = {**ODD_LINKS, "pinched_torus_and_sphere": pinched_torus_and_sphere()}
    for name in MUTANTS[mutant]:
        assert_gate(inputs[name])
    mutant(monkeypatch)
    for name in MUTANTS[mutant]:
        with pytest.raises(AssertionError):
            assert_gate(inputs[name])


# -------------------------------------------------------- operation counts


def test_validating_builds_no_link_surface(monkeypatch, fx, walk):
    """Validating the corpus walks, the fixtures and the ladder rungs
    builds no Surface and tests no link for connectivity: every vertex
    link there is a sphere or a projective plane (the walks made 3,678
    link tests and 950 Surface builds before).  Link connectivity is
    tested only at a vertex whose link is refused, and on an edge whose
    ends both have another link, as the two torus vertices of
    ``TORUS_LINKS`` do."""
    inputs = [walk(s, False).complex for s in SPHERE_WALK_SEEDS]
    inputs += [walk(s, True).complex for s in FOLD_WALK_SEEDS]
    inputs += GROUPS["fixtures"](fx, walk) + GROUPS["ladders"](fx, walk)
    inputs = [SimplicialComplex(K.facets) for K in inputs + [TORUS_LINKS]]
    builds, tested = [], []
    init, link_connected = surfaces.Surface.__init__, complexes._link_connected

    def counted_init(self, triangles):
        builds.append(triangles)
        init(self, triangles)

    def counted_test(K, f):
        tested.append(f)
        return link_connected(K, f)

    monkeypatch.setattr(surfaces.Surface, "__init__", counted_init)
    monkeypatch.setattr(complexes, "_link_connected", counted_test)
    reports = [validate_normal(K) for K in inputs]
    assert all(r.is_normal_closed for r in reports)
    assert sum(len(r.singular_vertices) for r in reports[:116]) > 0
    assert builds == []
    assert tested == [frozenset((7, 8))]
    assert [v for v, _ in reports[-1].singular_vertices] == [7, 8]
