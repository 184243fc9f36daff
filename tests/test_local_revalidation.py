"""Local revalidation: the carried singular maps against the full check.

Replay, the reducer and the random walk read each step's map off its
record by the kind's links rule (``moves.singular_after``), and a split
reads both halves' maps off the split check (``reducer._split_singular``);
a fold, an unfold, a handle and an expansion at a singular vertex
recheck only the faces the move touched (``normal_update``).  The tests
here compare those maps with ``normal_update`` and with
``validate_normal`` on every component, at every replay step and every
reducer step and split half of the corpus, and ``normal_update`` on
perturbed complexes where it must reject.  Mutants of the rules must
fail the gate.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from pseudoform import complexes, generators as gen, moves, reducer, surfaces
from pseudoform.complexes import SimplicialComplex, normal_update, total_g2
from pseudoform.errors import DimensionError, MoveError, TraceFormatError

from conftest import (COMPLEX_FIXTURES, FOLD_WALK_SEEDS, LINKS_MUTANTS, RULE_MUTANTS,
                      SPHERE_WALK_SEEDS, folded_spine, long_fold_walk, rp2_second_summand,
                      walk_spec)

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


def install_checks(monkeypatch):
    """Make every singular map that replay and the reducer carry assert
    agreement with the oracle: each ``moves.singular_after`` (which also
    must agree with ``normal_update``) and both halves of each answer of
    ``reducer._split_singular``, as they are now.  Returns the list of
    checks, one per step and split half, each as (the record's kind, or
    "split", whether the map gives a vertex of a facet the step changed
    a class other than the sphere)."""
    calls = []
    singular_after = moves.singular_after
    split, split_singular = reducer._split, reducer._split_singular
    split_of = {}  # record -> (piece, first half, second half)

    def check(kind, K, K2, got):
        # the map of ``K`` is the seeds' {}, the admission pass's full
        # check or an earlier checked result
        assert got == full_singular_map(K2)
        calls.append((kind, bool(got) and any(v in got for F in K2.facets - K.facets for v in F)))

    def checked(K, K2, rec, singular):
        got = singular_after(K, K2, rec, singular)
        assert got == normal_update(K, K2, singular)
        check(rec.kind, K, K2, got)
        return got

    def recorded_split(K, *args):
        K1, K2, rec = split(K, *args)
        split_of[id(rec)] = K, K1, K2
        return K1, K2, rec

    def checked_split(K1, rec, singular):
        got = split_singular(K1, rec, singular)
        K, *halves = split_of.pop(id(rec))
        for half, sing in zip(halves, got):
            check("split", K, half, sing)
        return got

    monkeypatch.setattr(moves, "singular_after", checked)
    monkeypatch.setattr(reducer, "_split", recorded_split)
    monkeypatch.setattr(reducer, "_split_singular", checked_split)
    return calls


@pytest.fixture
def checked_updates(monkeypatch):
    return install_checks(monkeypatch)


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


def test_rp2_second_summand_agrees_with_full_validation(checked_updates):
    K, trace = rp2_second_summand()
    del checked_updates[:]
    assert reducer.replay(trace) == K
    assert len(checked_updates) == len(trace.forward_moves)
    # the last move glues the sphere's vertex onto an RP^2 vertex
    assert checked_updates[-1] == (moves.CONNECTED_SUM, True)
    _reduce_and_replay(K, checked_updates)


def test_every_links_rule_answers_a_non_sphere_class(fx, walks, checked_updates):
    """Each kind with a ``links`` rule has a gated replay step at which
    its map gives a vertex of a changed facet a class other than the
    sphere, so that no rule lands unexercised."""
    traces = [rp2_second_summand()[1]]
    traces += [reducer.reduce_complex(fx(name)).trace for name in ("folded_g2_3", "folded_g2_4")]
    traces += [g.trace for g in walks]
    for g in map(long_fold_walk, (2, 14)):
        traces += [g.trace, reducer.reduce_complex(g.complex).trace]
    del checked_updates[:]
    for trace in traces:
        reducer.replay(trace)
    seen = {kind for kind, non_sphere in checked_updates if non_sphere}
    ruled = [kind for kind, move in moves.MOVES.items() if move.links is not None]
    assert ruled
    assert [kind for kind in ruled if kind not in seen] == []


@pytest.mark.parametrize("mutate", RULE_MUTANTS)
def test_the_gate_fails_on_a_move_rule_mutant(mutate, monkeypatch):
    trace = long_fold_walk(2).trace
    mutate(monkeypatch)
    install_checks(monkeypatch)
    with pytest.raises(AssertionError):
        reducer.replay(trace)


@pytest.mark.parametrize("mutate", LINKS_MUTANTS)
def test_the_gate_fails_on_a_links_mutant(mutate, monkeypatch):
    # a sum mutant fails at replay's last move, the split mutant at a
    # split of the reduction with an RP^2 corner
    K, trace = rp2_second_summand()
    mutate(monkeypatch)
    install_checks(monkeypatch)
    with pytest.raises(AssertionError):
        reducer.replay(trace)
        reducer.reduce_complex(K)


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


def _surface_builds(monkeypatch):
    """Record, for each ``surfaces.Surface`` built from now on, the kind
    of the move replay is at (None before the first)."""
    builds, at = [], [None]
    init, apply_record = surfaces.Surface.__init__, moves.apply_record

    def counted(self, triangles):
        builds.append(at[0])
        init(self, triangles)

    def starting(K, record):
        at[0] = record.kind
        return apply_record(K, record)

    monkeypatch.setattr(surfaces.Surface, "__init__", counted)
    monkeypatch.setattr(moves, "apply_record", starting)
    return builds


def test_sums_and_splits_build_no_link_surface(monkeypatch):
    # a connected sum and a split read their singular maps off the step;
    # the parent built a Surface at every vertex of every relabelled facet
    staircase = gen.staircase_sphere(64)
    folded = folded_spine(32)
    traces = [reducer.reduce_complex(K).trace for K in (staircase, folded)]
    builds = _surface_builds(monkeypatch)
    assert reducer.replay(traces[0]) == staircase
    assert builds == []  # 426 before
    assert reducer.replay(traces[1]) == folded
    assert traces[1].counts()[2] == 1
    assert set(builds) == {moves.EDGE_FOLD}  # 7 builds; 293 before
    del builds[:]
    assert reducer.reduce_complex(staircase).accepted
    # the admission check classifies each vertex link once: 68 of the
    # 746 builds before
    assert len(builds) == len(staircase.vertices)


def test_walks_recheck_only_folds_and_singular_expansions(monkeypatch):
    # every other kind's links rule reads the map off the record;
    # rechecking every step made 2,320 calls and 16,339 Surface builds
    at, rechecks = [None], []
    singular_after, update = moves.singular_after, moves.normal_update

    def noting(K, K2, rec, singular):
        at[0] = rec, singular
        return singular_after(K, K2, rec, singular)

    def counted(K, K2, singular):
        rechecks.append(at[0])
        return update(K, K2, singular)

    monkeypatch.setattr(moves, "singular_after", noting)
    monkeypatch.setattr(moves, "normal_update", counted)
    for seed in SPHERE_WALK_SEEDS:
        gen.generate(walk_spec(seed, False))
    assert rechecks == []
    for seed in FOLD_WALK_SEEDS:
        gen.generate(walk_spec(seed, True))
    assert rechecks
    for rec, singular in rechecks:
        assert rec.kind == moves.EDGE_FOLD or (
            rec.kind == moves.EDGE_EXPAND and rec.get("vertex") in singular)


def test_insertion_and_unfold_cut_no_vertex_link(monkeypatch, walk):
    # both decide from the sides of the cut link and its class; the full
    # cut only words a refusal on a link that is not a sphere
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    original = moves.missing_triangle_neighborhood
    monkeypatch.setattr(moves, "missing_triangle_neighborhood", counted)
    report = reducer.reduce_complex(_folded_spine(32))
    assert report.accepted
    assert report.trace.counts()[2] == 1
    finals = [walk(seed, False).complex for seed in SPHERE_WALK_SEEDS]
    assert sum(len(moves.insertion_sites(K)) for K in finals) == 339
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
