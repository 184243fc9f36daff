"""Local revalidation: ``normal_update`` against the full check.

Replay and the reducer recheck only the faces a move touched.  The
tests here compare that fast path with ``validate_normal`` on every
component, at every replay step and every reducer step and split of
the corpus, and on perturbed complexes where it must reject.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from pseudoform import complexes, generators as gen, moves, reducer, surfaces
from pseudoform.complexes import SimplicialComplex, normal_update, total_g2
from pseudoform.errors import DimensionError, MoveError, TraceFormatError

from conftest import COMPLEX_FIXTURES

# 48 short walks, half of them allowed to fold, plus the two fold walks
# that fold (at their twelfth move)
WALKS = [(seed, fold, 8) for seed in range(24) for fold in (False, True)]
WALKS += [(2, True, 12), (14, True, 12)]


@pytest.fixture(scope="module")
def walks():
    return [gen.generate(gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", budget), ("allow_fold", fold),
        ("g2_cap", 4 if fold else 9),
    ))) for seed, fold, budget in WALKS]


def _folded_spine(n):
    S = gen.spine_path_sphere(n)
    folds = gen.admissible_folds(S)
    s1, s2, psi = folds[len(folds) // 2]
    return moves.edge_fold(S, s1, s2, dict(psi))[0]


def full_singular_map(K):
    """The oracle: ``validate_normal`` on every component."""
    out = {}
    for comp in K.connected_components():
        rep = complexes.validate_normal(comp)
        if not rep.is_normal_closed:
            return None
        out.update(rep.singular_vertices)
    return out


@pytest.fixture
def checked_updates(monkeypatch):
    """Make every ``normal_update`` of replay and the reducer assert
    agreement with the oracle; yields the list of checked calls."""
    calls = []

    def checked(K, K2, singular):
        # ``singular`` is the seeds' {}, the admission pass's full check
        # or an earlier checked result
        got = normal_update(K, K2, singular)
        assert got == full_singular_map(K2)
        calls.append(got)
        return got

    monkeypatch.setattr(reducer, "normal_update", checked)
    return calls


def _reduce_and_replay(K, calls):
    """Reduce K, replay its trace; every step goes through ``calls``."""
    del calls[:]
    report = reducer.reduce_complex(K)
    assert report.accepted, report.reason
    assert calls or not report.trace.forward_moves
    del calls[:]
    assert reducer.replay(report.trace) == K
    assert len(calls) == len(report.trace.forward_moves)


# double_fold_g2_6 is rejected on admission, before any step
@pytest.mark.parametrize("name", [n for n in COMPLEX_FIXTURES
                                  if n != "double_fold_g2_6"])
def test_fixtures_agree_with_full_validation(name, fx, checked_updates):
    _reduce_and_replay(fx(name), checked_updates)


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_ladders_agree_with_full_validation(n, checked_updates):
    _reduce_and_replay(gen.staircase_sphere(n), checked_updates)
    if n >= 6:  # spine spheres below six blocks admit no fold
        _reduce_and_replay(_folded_spine(n), checked_updates)


def test_walks_agree_with_full_validation(walks, checked_updates):
    folds = 0
    for g in walks:
        del checked_updates[:]
        assert reducer.replay(g.trace) == g.complex
        assert len(checked_updates) == len(g.trace.forward_moves)
        folds += g.trace.counts()[2]
        _reduce_and_replay(g.complex, checked_updates)
    assert folds == 2


# --------------------------------------------------- the rejecting path


CORPUS = [gen.boundary_simplex(), gen.cross_polytope(),
          gen.staircase_sphere(4), _folded_spine(6)]


@given(st.sampled_from(range(len(CORPUS))), st.sampled_from(["drop", "add", "relabel"]),
       st.data())
def test_perturbed_complex_agrees_with_full_validation(index, how, data):
    K = CORPUS[index]
    facets = sorted(K.facets, key=sorted)
    labels = sorted(K.vertices) + [K.fresh_label()]
    if how == "drop":
        F = data.draw(st.sampled_from(facets))
        K2 = SimplicialComplex(K.facets - {F})
    elif how == "add":
        F = data.draw(st.lists(st.sampled_from(labels), min_size=4, max_size=4,
                               unique=True))
        K2 = SimplicialComplex(K.facets | {frozenset(F)})
    else:
        F = data.draw(st.sampled_from(facets))
        x = data.draw(st.sampled_from(sorted(F)))
        y = data.draw(st.sampled_from([v for v in labels if v not in F]))
        K2 = SimplicialComplex((K.facets - {F}) | {(F - {x}) | {y}})
    got = normal_update(K, K2, full_singular_map(K))
    assert got == full_singular_map(K2)


def test_perturbations_reach_both_verdicts():
    K = gen.cross_polytope()
    broken = SimplicialComplex(sorted(K.facets, key=sorted)[1:])
    assert normal_update(K, broken, {}) is None
    K2, _rec = moves.bistellar_one(K, moves.bistellar_one_sites(K)[0][0])
    assert normal_update(K, K2, {}) == {}
    F = _folded_spine(6)
    assert set(normal_update(gen.spine_path_sphere(6), F, {})) == {0, 1}


# ------------------------------------------------------------- total_g2


def _per_component_g2(K):
    return sum(comp.f_vector().g2 for comp in K.connected_components())


def test_total_g2_equals_the_per_component_sum(fx, walks):
    corpus = [fx(name) for name in COMPLEX_FIXTURES]
    corpus += [g.complex for g in walks[-4:]]
    for K in corpus:
        assert total_g2(K) == _per_component_g2(K)
    for A, B in itertools.combinations(corpus[:6], 2):
        shifted = B.relabeled({v: v + A.fresh_label() for v in B.vertices})
        union = SimplicialComplex(A.facets | shifted.facets)
        assert total_g2(union) == _per_component_g2(union)
        assert total_g2(union) == total_g2(A) + total_g2(B)
    assert total_g2(SimplicialComplex([])) == 0


def test_total_g2_wants_a_3_complex():
    tetra_boundary = SimplicialComplex(itertools.combinations(range(4), 3))
    with pytest.raises(DimensionError):
        total_g2(tetra_boundary)


# ------------------------------------------- the split cuts no vertex link


def test_split_cuts_no_vertex_link(monkeypatch):
    # the reducer decides every split by the star cut along the missing
    # tetrahedron's triangles, corners included
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    original = surfaces.cycle_cut
    monkeypatch.setattr(surfaces, "cycle_cut", counted)
    monkeypatch.setattr(moves, "cycle_cut", counted)
    report = reducer.reduce_complex(gen.staircase_sphere(12))
    assert report.accepted
    assert report.trace.counts()[0] == 12
    assert calls == []


# ------------------------------------------------ two-facets contraction


def test_contract_two_facets_rejects_stars_that_are_not_a_ball():
    # The stars of 0 and 4 meet in exactly the triangle 123, yet each
    # triangle at 0 or 4 lies in one facet only: the boundary of the
    # union passes through both centres.  The shared precondition says
    # so, and the site list leaves the pair out.
    K = SimplicialComplex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4)])
    for call in (moves._contract_two_facets_check, moves.contract_two_facets):
        with pytest.raises(MoveError) as ei:
            call(K, 0, 4)
        assert "do not form a ball" in str(ei.value)
    assert moves.contraction_pair_sites(K) == []


# ------------------------------------------------- canonical trace text


def _two_seed_text():
    return reducer.format_trace(
        reducer.reduce_complex(gen.staircase_sphere(2)).trace)


@pytest.mark.parametrize("old, new, line", [
    ("seeds=2", "seeds=02", 1),
    ("g2=0", "g2=+0", 1),
    ("result=6,14,16,8", "result=6,014,16,8", 1),
    ("result=6,14,16,8", "result=+6,14,16,8", 1),
    ("trace seeds=2", "trace  seeds=2", 1),
    ("g2=0\n", "g2=0 extra=1\n", 1),
    ("seed 0\n", "seed 00\n", 2),
    ("seed 1\n", "seed +1\n", 9),
    ("0 1 2 3\n", "1 0 2 3\n", 3),
    ("0 1 2 3\n", "0 1 2 3\n0 1 2 3\n", 4),
    ("0 1 2 3\n0 1 2 4\n", "0 1 2 4\n0 1 2 3\n", 3),
    ("0 1 2 3\n", "0 1 2 03\n", 3),
    ("0 1 2 3\n", "0  1 2 3\n", 3),
    ("end\nseed 1", "end\n\nseed 1", 9),
    ("g2_delta=0\n", "g2_delta=0", 16),
    ("g2_delta=0\n", "g2_delta=0\n\n", 17),
])
def test_non_canonical_header_and_seed_lines_are_format_errors(old, new, line):
    good = _two_seed_text()
    assert good.count(old) == 1
    with pytest.raises(TraceFormatError) as ei:
        reducer.parse_trace(good.replace(old, new))
    assert str(ei.value).startswith(f"line {line}: ")
    assert reducer.format_trace(reducer.parse_trace(good)) == good


TRACE_TEXT = _two_seed_text()


@given(st.integers(0, len(TRACE_TEXT) - 1), st.sampled_from(["insert", "delete", "replace"]),
       st.sampled_from(list("0123456789 ,()=+-_\nx")))
def test_every_accepted_text_is_canonical(at, how, ch):
    if how == "insert":
        text = TRACE_TEXT[:at] + ch + TRACE_TEXT[at:]
    elif how == "delete":
        text = TRACE_TEXT[:at] + TRACE_TEXT[at + 1:]
    else:
        text = TRACE_TEXT[:at] + ch + TRACE_TEXT[at + 1:]
    try:
        trace = reducer.parse_trace(text)
    except TraceFormatError:
        return
    assert reducer.format_trace(trace) == text
