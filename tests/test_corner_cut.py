"""The move checks decide each link cut from its sides and the link
class: a differential test against the full cuts they replaced.

Edge expansion, two-facets insertion and edge unfolding each ask how a
cycle cuts a vertex link.  They now read the answer off
``surfaces._cut_sides`` and the class of the link.  The references
below are the checks as they were before, which cut each link in full
and read ``CutReport`` fields; their cut is the fan walk of
``tests/test_component_cut.py``, so it shares no code with the new
one.  On every candidate both must give the same return value, or
raise the same exception class with the same message and details.  The
refusals' details are the link's class where a cut does not separate
and the sides' descriptions where they are not both discs; an
expansion's refusal no longer names the cycle's neighbourhood.  The
unfold check refuses a complex that is not normal as the public split
does, through ``moves._corner_links``.

The candidates are every 3-cycle of every vertex link (insertion) and
every missing tetrahedron (unfold), on the fixtures, both ladders,
every state of the benchmark's walk corpus, the non-normal complexes of
``tests/test_component_cut.py`` and a complex with two torus links.
An expansion's candidates are every 3-cycle and every edge-link cycle
of every vertex link, with either side first, on the same groups (each
walk at its last state) and on the cones over pinched spheres.  Six
mutants of the new checks must each fail the gates.
"""

import inspect
import re
import textwrap

import pytest

from pseudoform import generators as gen, moves, surfaces
from pseudoform.complexes import SimplicialComplex, _vertex_link, _vertex_link_class
from pseudoform.errors import MoveError, NotSurfaceError, PseudoformError

from conftest import (COMPLEX_FIXTURES, FOLD_WALK_SEEDS, SPHERE_WALK_SEEDS, fold_rung,
                      walk_states)
from test_component_cut import (ANNULUS, MOEBIUS, cone, link_cycles, not_normal_corpus,
                                pinched_links, reference_cycle_cut, reference_neighborhood)


# ---------------------------------------------------------- the references


def reference_insert_check(K, vertex, t):
    """The insertion check that decided by the full cut."""
    if len(t) != 3:
        raise MoveError(f"expected a triangle, got {sorted(t)}")
    if frozenset((vertex,)) <= t:
        raise MoveError(f"triangle {sorted(t)} must not contain the vertex {vertex}")
    if K.contains_face(t):
        raise MoveError(f"triangle {sorted(t)} is already a face", details=tuple(sorted(t)))
    star_facets = moves._star_facets(K, vertex)
    report = reference_neighborhood(K, vertex, t)
    if not report.separates:
        raise MoveError(
            f"boundary of {sorted(t)} does not separate the link of {vertex}",
            details=_vertex_link_class(K, vertex),
        )
    if any(d != "disc" for d in report.side_descriptions):
        raise MoveError(
            f"cut sides of the link of {vertex} are not both discs: "
            f"{report.side_descriptions}",
            details=report.side_descriptions,
        )
    return star_facets, report.sides


def reference_expansions(K, vertex, S, cycle) -> dict:
    """The edge expansions of ``K`` along ``cycle`` that took their sides
    from the full cut of ``S``, the link of ``vertex``: each ``u_side``
    -> the facets after it and its record."""
    report = reference_cycle_cut(S, cycle)
    if not report.separates:
        raise MoveError(
            f"cycle {cycle} does not separate the link of {vertex} "
            f"({report.neighborhood})",
            details=S.classify(),
        )
    apex_u, apex_v = K.fresh_label(), K.fresh_label() + 1
    n = len(cycle)
    kept = K.facets - set(moves._star_facets(K, vertex))
    ring = {frozenset((apex_u, apex_v, cycle[i], cycle[(i + 1) % n])) for i in range(n)}
    out = {}
    for u_side in (0, 1):
        cones = {t | {apex_u} for t in report.sides[u_side]}
        cones |= {t | {apex_v} for t in report.sides[1 - u_side]}
        out[u_side] = (kept | ring | cones, moves._record(
            moves.EDGE_EXPAND, n - 3, vertex=vertex, cycle=cycle, apex_u=apex_u,
            apex_v=apex_v, u_side=u_side))
    return out


def reference_corner_reports(K, quad):
    """Each corner of a missing tetrahedron with the full cut of its
    link along the opposite triangle."""
    return {x: reference_neighborhood(K, x, quad - {x}) for x in sorted(quad)}


def reference_unfold_check(K, quad):
    """The unfold check that read the corner pattern off the full cuts."""
    moves._missing_tetrahedron_check(K, quad)
    reports = reference_corner_reports(K, quad)
    moeb = tuple(x for x in sorted(quad) if reports[x].neighborhood == MOEBIUS)
    seps = tuple(x for x in sorted(quad) if reports[x].separates)
    if len(moeb) != 2 or len(seps) != 2:
        raise MoveError(
            f"corner pattern of {sorted(quad)} does not witness a fold: "
            f"moebius at {list(moeb)}, separating at {list(seps)}",
            details=(moeb, seps),
        )
    a, b = seps
    side_a = {F: int(F - {a} in reports[a].sides[1]) for F in moves._star_facets(K, a)}
    side_b = {F: int(F - {b} in reports[b].sides[1]) for F in moves._star_facets(K, b)}
    pairing: dict = {}
    for F in K._cofacets(frozenset((a, b))):
        if pairing.setdefault(side_a[F], side_b[F]) != side_b[F]:
            raise MoveError(
                f"link sides at {a} and {b} do not pair consistently", details=(a, b))
    return moeb, seps, side_a, side_b, pairing[1] if 1 in pairing else 1 - pairing[0]


# ----------------------------------------------------------------- the gate


def outcome(check, K, *args):
    try:
        return check(K, *args)
    except PseudoformError as e:
        return (type(e).__name__, str(e), getattr(e, "details", None))


def mismatches(K) -> list:
    """The candidates of ``K`` on which a check and its reference differ."""
    out = []
    cycles = [(v, frozenset(c)) for v in sorted(K.vertices) for c in _vertex_link(K, v).cycles]
    for v, t in cycles:
        if outcome(moves._insert_check, K, v, t) != outcome(reference_insert_check, K, v, t):
            out.append(("insert", v, tuple(sorted(t))))
    for q in K.missing_faces(3):
        if outcome(moves._unfold_check, K, q) != outcome(reference_unfold_check, K, q):
            out.append(("unfold", tuple(sorted(q))))
    return out


def _expanded(K, vertex, cycle, u_side):
    K2, rec = moves.expand_edge(K, vertex, cycle, u_side)
    return K2.facets, rec


def expansion_mismatches(K) -> list:
    """The candidates of ``K`` on which ``expand_edge`` and the reference
    differ: every 3-cycle of every vertex link and, where that link is a
    surface, the link of each of its vertices, with ``u_side`` 0 and 1.
    The reference's refusal loses its neighbourhood, which the package
    no longer words."""
    out = []
    for v in sorted(K.vertices):
        cycles = list(_vertex_link(K, v).cycles)
        try:
            S = surfaces.Surface(K._link_cells(frozenset((v,))))
        except NotSurfaceError as e:
            S, refused = None, ("NotSurfaceError", str(e), None)
        else:
            cycles += [cyc for c in sorted(S.vertices) for cyc in link_cycles(S, c)]
        for cyc in cycles:
            want = refused if S is None else outcome(reference_expansions, K, v, S, cyc)
            if not isinstance(want, dict):  # a refusal, the same at either side
                name, message, details = want
                message = re.sub(r" \((Annulus|Moebius)\)$", "", message)
                want = dict.fromkeys((0, 1), (name, message, details))
            for u_side in (0, 1):
                if outcome(_expanded, K, v, cyc, u_side) != want[u_side]:
                    out.append((v, cyc, u_side))
    return out


# Normal, with torus links at 7 and 8.  At the missing tetrahedron
# (5, 6, 7, 8) the corners 7 and 8 do not separate their links, and the
# triangle boundaries are two-sided there: no fold witness.
TORUS_LINKS = SimplicialComplex([
    (0, 1, 3, 7), (0, 1, 3, 8), (0, 1, 5, 7), (0, 1, 5, 8), (0, 2, 3, 7),
    (0, 2, 3, 8), (0, 2, 6, 7), (0, 2, 6, 8), (0, 5, 7, 8), (0, 6, 7, 8),
    (1, 2, 4, 7), (1, 2, 4, 8), (1, 2, 6, 7), (1, 2, 6, 8), (1, 3, 4, 7),
    (1, 3, 4, 8), (1, 5, 6, 7), (1, 5, 6, 8), (2, 3, 5, 7), (2, 3, 5, 8),
    (2, 4, 5, 7), (2, 4, 5, 8), (3, 4, 6, 7), (3, 4, 6, 8), (3, 5, 6, 7),
    (3, 5, 6, 8), (4, 5, 7, 8), (4, 6, 7, 8),
])


CORPUS_GROUPS = {
    "fixtures": lambda fx, walk: [fx(name) for name in COMPLEX_FIXTURES],
    "staircase": lambda fx, walk: [gen.staircase_sphere(n) for n in range(1, 17)],
    "spinefold": lambda fx, walk: [fold_rung(n) for n in range(6, 33)],
    "notnormal": lambda fx, walk: not_normal_corpus(walk),
    "torus": lambda fx, walk: [TORUS_LINKS],
    "foldwalks": lambda fx, walk: [
        K for s in FOLD_WALK_SEEDS for K in walk_states(walk(s, True))],
}
# the benchmark's sphere walks, every state
for _lo in range(SPHERE_WALK_SEEDS.start, SPHERE_WALK_SEEDS.stop, 25):
    CORPUS_GROUPS[f"walks{_lo}"] = (lambda fx, walk, lo=_lo: [
        K for s in range(lo, lo + 25) for K in walk_states(walk(s, False))])


@pytest.mark.parametrize("group", sorted(CORPUS_GROUPS))
def test_checks_match_the_full_cut(group, fx, walk):
    corpus = CORPUS_GROUPS[group](fx, walk)
    assert corpus
    for K in corpus:
        assert mismatches(K) == []


# The expansion gate's groups: those above, each walk at its last state,
# which carries the walk's certified map, and the cones over pinched
# spheres.  Every state of every walk would be about 240,000 cycles,
# each expanded at both sides, and take several minutes.
EXPANSION_GROUPS = {
    **CORPUS_GROUPS,
    "foldwalks": lambda fx, walk: [walk(s, True).complex for s in FOLD_WALK_SEEDS],
    "pinched": lambda fx, walk: [
        cone(S)[0] for n in range(5, 17) for S in pinched_links(n)],
}
for _lo in range(SPHERE_WALK_SEEDS.start, SPHERE_WALK_SEEDS.stop, 25):
    EXPANSION_GROUPS[f"walks{_lo}"] = (lambda fx, walk, lo=_lo: [
        walk(s, False).complex for s in range(lo, lo + 25)])


@pytest.mark.parametrize("group", sorted(EXPANSION_GROUPS))
def test_expansion_matches_the_full_cut(group, fx, walk):
    corpus = EXPANSION_GROUPS[group](fx, walk)
    assert corpus
    for K in corpus:
        assert expansion_mismatches(K) == []


def test_torus_corners_neither_separate_nor_fold():
    quad = frozenset((5, 6, 7, 8))
    assert TORUS_LINKS.missing_faces(3) == [quad]
    links = moves._corner_links(TORUS_LINKS, quad)
    assert [links[x].kind for x in (7, 8)] == [surfaces.TORUS] * 2
    reports = reference_corner_reports(TORUS_LINKS, quad)
    for x in (7, 8):
        assert moves._link_sides(TORUS_LINKS, x, quad - {x}) is None
        assert reports[x].neighborhood == ANNULUS
    with pytest.raises(MoveError, match="does not witness a fold"):
        moves.edge_unfold(TORUS_LINKS, quad)


# ------------------------------------------------------------- the mutants


MUTANTS = {
    "no RP2 test": (moves, "_unfold_check",
                    "not sides[x] and links[x].kind == surfaces.RP2", "not sides[x]"),
    "no pinch test": (moves, "_unpinched",
                      "_edge_circle(K, frozenset((vertex, c))) is None", "False"),
    "no pinch test at insertion": (moves, "_insert_check",
                                   "_unpinched(K, vertex, sorted(t))", "None"),
    "no pinch test at expansion": (moves, "expand_edge",
                                   "_unpinched(K, vertex, cyc)", "None"),
    "sides swapped": (surfaces, "_cut_sides", "i0 = comp[", "i0 = 1 - comp["),
    "no sphere test": (moves, "_insert_check",
                       "sides is not None and link.kind == surfaces.SPHERE",
                       "sides is not None"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_gate_fails_on_a_mutant(name, fx, walk, monkeypatch):
    module, func, old, new = MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(getattr(module, func)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, func, namespace[func])
    corpus = [TORUS_LINKS, fx("folded_g2_3"), *not_normal_corpus(walk)]
    assert any(mismatches(K) or expansion_mismatches(K) for K in corpus)
