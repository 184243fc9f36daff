"""Local revalidation: the certified singular maps against the full check.

Replay, the reducer and the random walk read each step's map off its
record by the kind's links rule (``moves.singular_after``), and a split
reads both halves' maps off the split check (``reducer._split_singular``).
Each map is stored on the complex it describes, and the move checks
read it through ``complexes._link_class``.  The tests here compare
those maps with the reference recheck ``normal_update`` (kept in
``conftest``) and with ``validate_normal`` on every component, and
``_link_class`` with the full classification, at every replay step and
every reducer step and split half of the corpus, and ``normal_update``
on perturbed complexes where it must reject.  Mutants of the rules and
of the readers must fail the gates, and no step may build a link
surface.
"""

import inspect
import itertools
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

from pseudoform import complexes, generators as gen, moves, reducer, surfaces
from pseudoform.complexes import SimplicialComplex, total_g2
from pseudoform.errors import DimensionError, MoveError, PseudoformError, TraceFormatError

from conftest import (COMPLEX_FIXTURES, FOLD_WALK_SEEDS, LINKS_MUTANTS, RULE_MUTANTS,
                      SPHERE_WALK_SEEDS, fold_rung, folded_spine, long_fold_walk,
                      normal_update, rp2_handle_and_unfold, rp2_second_summand, rule_runs,
                      walk_spec)
from test_split_check import split_sites

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
    """Make every singular map that replay and the reducer certify
    assert agreement with the oracle: each ``moves.singular_after``
    (which also must agree with ``normal_update``) and both halves of
    each ``reducer._split_singular``, as they are now.  Each certified
    state must also answer ``complexes._link_class`` as the full
    ``_vertex_link_class`` does at every vertex of the facets the step
    changed, and each split's four corners must separate their links
    (``moves._link_sides``).  Returns the list of checks, one per step
    and split half, each as (the record's kind, or "split", whether the
    map before or after the step gives a vertex of a facet the step
    changed a class other than the sphere)."""
    calls = []
    singular_after, split_singular = moves.singular_after, reducer._split_singular

    def check(kind, K, K2, got):
        # the map of ``K`` is the seeds' {}, the admission pass's full
        # check or an earlier checked result
        assert got == full_singular_map(K2)
        changed = {v for F in K.facets ^ K2.facets for v in F} & K2.vertices
        for v in sorted(changed):
            assert complexes._link_class(K2, v) == complexes._vertex_link_class(K2, v)
        before = K._cache["singular"]
        calls.append((kind, any(v in got for F in K2.facets - K.facets for v in F)
                      or any(v in before for F in K.facets - K2.facets for v in F)))

    def checked(K, K2, rec):
        before = K._cache["singular"]
        got = singular_after(K, K2, rec)
        assert got == normal_update(K, K2, before)
        check(rec.kind, K, K2, got)
        return got

    def checked_split(K, K1, K2, rec):
        # the split check cut no corner link; since its cut left two
        # sides, each corner must separate its link
        quad = frozenset(rec.get("sigma1"))
        for x in quad:
            assert moves._link_sides(K, x, quad - {x}) is not None
        split_singular(K, K1, K2, rec)
        for half in (K1, K2):
            check("split", K, half, half._cache["singular"])

    monkeypatch.setattr(moves, "singular_after", checked)
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
        _reduce_and_replay(fold_rung(n), checked_updates)


def test_walks_agree_with_full_validation(walks, checked_updates):
    folds = 0
    for g in walks:
        del checked_updates[:]
        assert reducer.replay(g.trace) == g.complex
        assert len(checked_updates) == len(g.trace.forward_moves)
        folds += g.trace.counts()[2]
        _reduce_and_replay(g.complex, checked_updates)
    assert folds == 2


@pytest.mark.parametrize("fold", [False, True])
def test_corpus_walks_agree_with_full_validation(fold, checked_updates):
    # the benchmark's corpus walks, generated afresh under the gate, so
    # that each certified candidate is checked too; the session's walks
    # are never built under a patch
    for seed in FOLD_WALK_SEEDS if fold else SPHERE_WALK_SEEDS:
        del checked_updates[:]
        g = gen.generate(walk_spec(seed, fold))
        assert len(checked_updates) >= len(g.trace.forward_moves)
        _reduce_and_replay(g.complex, checked_updates)


def test_rp2_second_summand_agrees_with_full_validation(checked_updates):
    K, trace = rp2_second_summand()
    del checked_updates[:]
    assert reducer.replay(trace) == K
    assert len(checked_updates) == len(trace.forward_moves)
    # the last move glues the sphere's vertex onto an RP^2 vertex
    assert checked_updates[-1] == (moves.CONNECTED_SUM, True)
    _reduce_and_replay(K, checked_updates)


def test_every_links_rule_answers_a_non_sphere_class(fx, walks, checked_updates):
    """Each kind's ``links`` rule has a gated replay step at which the map
    before or after it gives a vertex of a changed facet a class other
    than the sphere, so that no rule lands unexercised."""
    traces = [rp2_second_summand()[1], rp2_handle_and_unfold()[1]]
    traces += [reducer.reduce_complex(fx(name)).trace for name in ("folded_g2_3", "folded_g2_4")]
    traces += [g.trace for g in walks]
    for g in map(long_fold_walk, (2, 14)):
        traces += [g.trace, reducer.reduce_complex(g.complex).trace]
    del checked_updates[:]
    for trace in traces:
        reducer.replay(trace)
    seen = {kind for kind, non_sphere in checked_updates if non_sphere}
    assert [kind for kind in moves.MOVES if kind not in seen] == []


@pytest.mark.parametrize("mutate", RULE_MUTANTS)
def test_the_gate_fails_on_a_move_rule_mutant(mutate, monkeypatch):
    runs = rule_runs()
    mutate(monkeypatch)
    install_checks(monkeypatch)
    with pytest.raises(AssertionError):
        for run in runs:
            run()


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


# Mutants of the readers of the certified map.  Each patches the code
# in with ``monkeypatch``, so no complex it certifies outlives its test.

def link_class_answers_sphere(monkeypatch):
    """``_link_class`` calls every vertex of a certified complex a sphere."""
    link_class = complexes._link_class

    def mutant(K, v):
        return surfaces.SPHERE_CLASS if "singular" in K._cache else link_class(K, v)
    for module in (complexes, moves, reducer):
        monkeypatch.setattr(module, "_link_class", mutant)


def singular_map_reads_empty(monkeypatch):
    """``_singular_map`` gives every certified complex an empty map."""
    singular_map = complexes._singular_map

    def mutant(K):
        return None if singular_map(K) is None else {}
    for module in (complexes, gen, moves, reducer):
        monkeypatch.setattr(module, "_singular_map", mutant)


def split_check_cuts_three_triangles(monkeypatch):
    """``_split_check`` cuts the facets along three of the four triangles
    of the tetrahedron, so that they stay joined across the fourth."""
    source = textwrap.dedent(inspect.getsource(reducer._split_check))
    old = "_triangles(quad), _triangles)"
    assert source.count(old) == 1
    namespace = dict(vars(reducer))
    exec(compile(source.replace(old, "_triangles(quad)[1:], _triangles)"),
                 reducer.__file__, "exec"), namespace)
    monkeypatch.setattr(reducer, "_split_check", namespace["_split_check"])


@pytest.mark.parametrize("mutate", [link_class_answers_sphere, singular_map_reads_empty,
                                    split_check_cuts_three_triangles])
def test_the_gates_fail_on_a_reader_mutant(mutate, fx, monkeypatch):
    # the class and map mutants fail at replay's fold, whose changed facets hold
    # both RP^2 vertices; the cut mutant passes replay, which makes no
    # split, and refuses every tetrahedron of folded_g2_3 as the reference
    # does, but fails the reference scan of a stacked sphere, whose
    # tetrahedra it no longer splits
    trace = long_fold_walk(2).trace
    mutate(monkeypatch)
    install_checks(monkeypatch)
    with pytest.raises(AssertionError):
        reducer.replay(trace)
        split_sites(fx("folded_g2_3"))
        split_sites(fx("stacked_sphere_8"))


# --------------------------------------------------- the rejecting path


CORPUS = [gen.boundary_simplex(), gen.cross_polytope(),
          gen.staircase_sphere(4), fold_rung(6)]


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
    F = fold_rung(6)
    assert set(normal_update(gen.spine_path_sphere(6), F, {})) == {0, 1}


def test_singular_after_wants_a_certified_complex():
    # only a complex whose map a trusted step stored gives a map on
    K = gen.cross_polytope()
    K2, rec = moves.bistellar_one(K, moves.bistellar_one_sites(K)[0][0])
    with pytest.raises(PseudoformError, match="certified"):
        moves.singular_after(K, K2, rec)
    assert "singular" not in K2._cache
    K._cache["singular"] = {}
    assert moves.singular_after(K, K2, rec) == {}
    assert complexes._link_class(K2, min(K2.vertices)) == surfaces.SPHERE_CLASS


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


def test_split_cuts_no_vertex_link(monkeypatch):
    # the reducer decides every split by the star cut along the missing
    # tetrahedron's triangles, corners included, and the admission check
    # reads each vertex link off the indexes: no link Surface is built
    # (the admission check built one per vertex before)
    K = gen.staircase_sphere(12)
    builds = _surface_builds(monkeypatch)
    report = reducer.reduce_complex(K)
    assert report.accepted
    assert report.trace.counts()[0] == 12
    assert builds == []


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
    assert builds == []  # 293 before, then 7 in the recheck after the fold
    del builds[:]
    assert reducer.reduce_complex(staircase).accepted
    # the admission check reads each vertex link off the indexes: it
    # built 68 of the 746 Surfaces before, one per vertex, and then none
    assert builds == []


def test_move_checks_read_the_certified_classes(monkeypatch):
    # the walk's and the reducer's move checks read each class off the
    # certified map: generating the corpus walks classified 1,899 links
    # in the insertion check and 358 in the contraction's flag before,
    # and reducing staircase_sphere(64) cut 252 corner links
    checks = {"_insert_check", "contract_edge", "_corner_links"}
    callers, cuts = [], []
    vertex_link_class, link_sides = complexes._vertex_link_class, moves._link_sides

    def classified(K, v):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names & checks)
        return vertex_link_class(K, v)

    def cut(*args):
        cuts.append(args)
        return link_sides(*args)

    for module in (complexes, gen, moves, reducer):
        monkeypatch.setattr(module, "_vertex_link_class", classified, raising=False)
    monkeypatch.setattr(moves, "_link_sides", cut)
    builds = _surface_builds(monkeypatch)
    for seed, fold in [(s, False) for s in SPHERE_WALK_SEEDS] + [(s, True) for s in FOLD_WALK_SEEDS]:
        gen.generate(walk_spec(seed, fold))
    # the rechecks after the folds and singular expansions classified 20
    # links, and the expansions' whole-link cuts and the insertions'
    # refusals built 672 more link Surfaces before
    assert callers == []
    assert builds == []
    assert [names for names in callers if names] == []
    del cuts[:]
    assert reducer.reduce_complex(gen.staircase_sphere(64)).accepted
    assert cuts == []


def test_walk_steps_recheck_no_link(monkeypatch):
    # every kind's links rule reads the map off the record: no step of
    # the corpus walks builds a link Surface or classifies a link
    # (rechecking every step made 2,320 calls and 16,339 Surface builds,
    # and the folds' and singular expansions' rechecks 20 builds since)
    builds, steps = _surface_builds(monkeypatch), []
    classified = []
    singular_after, vertex_link_class = moves.singular_after, complexes._vertex_link_class

    def counted(K, K2, rec):
        before = len(builds), len(classified)
        got = singular_after(K, K2, rec)
        steps.append((len(builds), len(classified)) != before)
        return got

    def classifying(K, v):
        classified.append(v)
        return vertex_link_class(K, v)

    monkeypatch.setattr(moves, "singular_after", counted)
    monkeypatch.setattr(complexes, "_vertex_link_class", classifying)
    for seed, fold in [(s, False) for s in SPHERE_WALK_SEEDS] + [(s, True) for s in FOLD_WALK_SEEDS]:
        gen.generate(walk_spec(seed, fold))
    assert len(steps) > 2000
    assert not any(steps)


def test_insertion_and_unfold_cut_no_vertex_link(monkeypatch, walk):
    # both decide from the sides of the cut link and its class, read off
    # the certified map, and the unfold's rule reads the map after it off
    # the record: reducing builds no link Surface (the admission check
    # built one per vertex, and the recheck after the unfold more,
    # before), and listing the walks' insertion sites builds none
    K = fold_rung(32)
    finals = [walk(seed, False).complex for seed in SPHERE_WALK_SEEDS]
    builds = _surface_builds(monkeypatch)
    report = reducer.reduce_complex(K)
    assert report.accepted
    assert report.trace.counts()[2] == 1
    assert builds == []
    del builds[:]
    assert sum(len(moves.insertion_sites(K)) for K in finals) == 339
    assert builds == []


def test_expansions_at_one_vertex_classify_its_link_once(monkeypatch):
    # a complex that carries no certified map memoises its link classes,
    # so a second expansion at the same vertex classifies nothing (each
    # call built a link Surface before); the classes are read off the
    # indexes, so no Surface is built at all
    K = SimplicialComplex(gen.staircase_sphere(4).facets)
    assert complexes._singular_map(K) is None
    (v, c1), (_, c2) = itertools.islice(moves._iter_link_cycle_sites(K), 2)
    builds, classed = _surface_builds(monkeypatch), []
    closed_class = surfaces._closed_class

    def counted(chi, triangles):
        classed.append(chi)
        return closed_class(chi, triangles)

    monkeypatch.setattr(surfaces, "_closed_class", counted)
    moves.expand_edge(K, v, c1)
    assert classed == [2] * len(K.vertices)
    moves.expand_edge(K, v, c2)
    assert classed == [2] * len(K.vertices)
    assert builds == []


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
