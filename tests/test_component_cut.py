"""The package's one link cut against the fan walk it replaced.

The package cuts the link of a vertex along a cycle in two steps:
``moves._unpinched`` refuses a link pinched at a cycle vertex, and
``moves._link_sides`` reads the two sides off ``surfaces._cut_sides``.
The reference below is the earlier full cut, which walked the triangle
fan around each cycle vertex in cyclic order, sliced it at the two
cycle edges, glued the sliced triangles into a cut complex and counted
its components and boundary circles into a :class:`CutReport`.  On
every 3-cycle and every edge-link cycle of every vertex link of the
fixtures and the benchmark's walk corpus, and on pinched spheres, whose
pinch vertex has a fan of two cycles, both must give the same sides
(none when the cycle does not separate), or raise the same exception
class with the same message.  Each surface is cut as the link of the
apex of its cone, a complex that carries no certified map.

The report type and its neighbourhood names live here only: the
package words its refusals from the link's class and the sides.

The public split classifies each corner link before the facet cut
decides the split, so that a complex that is not normal is refused as
before.  Its outcomes on the missing tetrahedra of such complexes are
pinned.
"""

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass

import pytest

from pseudoform import generators as gen, moves, reducer
from pseudoform.complexes import SimplicialComplex
from pseudoform.errors import CycleError, NotSurfaceError, PseudoformError
from pseudoform.surfaces import (
    Surface,
    _component_ids,
    _count_components,
    _describe_piece,
    _edges_of,
)

from conftest import COMPLEX_FIXTURES, FOLD_WALK_SEEDS


# ---------------------------------------------------------- the reference

ANNULUS = "Annulus"
MOEBIUS = "Moebius"


@dataclass(frozen=True)
class CutReport:
    """Outcome of cutting a surface along a vertex-simple cycle.

    ``neighborhood`` is ``"Annulus"`` when the cut opens two boundary
    circles (two-sided cycle) and ``"Moebius"`` when it opens one
    (one-sided cycle).  When the cycle separates, ``sides`` holds the
    two triangle sets in canonical order - side 0 contains the
    lexicographically smallest triangle - and ``side_descriptions``
    describes each side in the same order.
    """

    cycle: tuple
    is_cycle_in_surface: bool
    separates: bool
    neighborhood: str
    components_after_cut: int
    n_boundary_circles: int
    side_descriptions: tuple
    sides: tuple


def _boundary_edges(triangles) -> list:
    count = Counter(e for t in triangles for e in _edges_of(t))
    return [e for e, n in count.items() if n == 1]


def _fan(S, c):
    by_gap: dict = {}
    tris = []
    for t in S.triangles:
        if c in t:
            tris.append(t)
            for x in t - {c}:
                by_gap.setdefault(x, []).append(t)
    start = min(tris, key=sorted)
    fan = [start]
    gaps = []
    cur = start
    g = min(cur - {c})
    while True:
        gaps.append(g)
        t1, t2 = by_gap[g]
        nxt = t2 if t1 == cur else t1
        if nxt == start:
            break
        fan.append(nxt)
        cur = nxt
        g = next(x for x in cur - {c} if x != g)
    if len(fan) != len(tris):
        raise NotSurfaceError(f"triangle fan around vertex {c} is not a single cycle")
    return fan, gaps


def reference_cycle_cut(S, cyc):
    """The fan-walk cut, for a valid cycle of a surface."""
    n = len(cyc)
    cycle_set = set(cyc)
    prevnext = {cyc[i]: (cyc[i - 1], cyc[(i + 1) % n]) for i in range(n)}
    side_of: dict = {}
    for c in cyc:
        fan, gaps = _fan(S, c)
        p, q = prevnext[c]
        ip, iq = gaps.index(p), gaps.index(q)
        k = len(fan)
        arc = []
        j = (ip + 1) % k
        while True:
            arc.append(fan[j])
            if j == iq:
                break
            j = (j + 1) % k
        in_arc = set(arc)
        arcs = [arc, [t for t in fan if t not in in_arc]]
        arcs.sort(key=lambda ts: min(tuple(sorted(t)) for t in ts))
        for s, ts in enumerate(arcs):
            for t in ts:
                side_of[(c, t)] = s
    cut_tris = []
    orig_of = {}
    for t in S.triangles:
        newt = frozenset(
            (x, side_of[(x, t)]) if x in cycle_set else (x, -1) for x in t
        )
        cut_tris.append(newt)
        orig_of[newt] = t
    comp_ids = _component_ids(cut_tris)
    n_comps = max(comp_ids.values()) + 1
    circles = _count_components(_boundary_edges(cut_tris))
    separates = n_comps == 2
    side_descriptions: tuple = ()
    sides: tuple = ()
    if separates:
        groups: list = [[], []]
        for ct in cut_tris:
            groups[comp_ids[ct]].append(ct)
        groups.sort(key=lambda g: min(tuple(sorted(orig_of[ct])) for ct in g))
        sides = tuple(frozenset(orig_of[ct] for ct in g) for g in groups)
        side_descriptions = tuple(_describe_piece(g) for g in groups)
    return CutReport(
        cycle=tuple(cyc),
        is_cycle_in_surface=True,
        separates=separates,
        neighborhood=ANNULUS if circles == 2 else MOEBIUS,
        components_after_cut=n_comps,
        n_boundary_circles=circles,
        side_descriptions=side_descriptions,
        sides=sides,
    )


def reference_neighborhood(K, v, t):
    """The full cut of the link of ``v`` along the boundary of the
    missing triangle ``t``."""
    S = Surface(frozenset(K._link_cells(frozenset((v,)))))
    if t in S.triangles:
        raise CycleError(f"triangle {sorted(t)} is a face of the link of {v}, not missing")
    for e in _edges_of(t):
        if e not in S.edges:
            raise CycleError(
                f"edge {tuple(sorted(e))} of the triangle is not in the link of {v}")
    return reference_cycle_cut(S, tuple(sorted(t)))


# ------------------------------------------------------------- the cycles


def three_cycles(S):
    up: dict = {}
    for a, b in map(sorted, S.edges):
        up.setdefault(a, set()).add(b)
    return [(a, b, c) for a in sorted(up) for b in sorted(up[a])
            for c in sorted(up[a] & up.get(b, set()))]


def link_cycles(S, c):
    """The link of ``c`` in ``S``, one cycle per component, each in
    cyclic order from its least vertex."""
    adj: dict = {}
    for t in S.triangles:
        if c in t:
            x, y = t - {c}
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
    out = []
    while adj:
        start = min(adj)
        cyc, prev, cur = [start], start, min(adj[start])
        while cur != start:
            cyc.append(cur)
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
        for x in cyc:
            del adj[x]
        out.append(tuple(cyc))
    return out


def all_cycles(S):
    return three_cycles(S) + [
        cyc for c in sorted(S.vertices) for cyc in link_cycles(S, c)]


def cone(S):
    """The cone over ``S`` and its apex, whose link is ``S``."""
    apex = max(S.vertices) + 1
    return SimplicialComplex(t | {apex} for t in S.triangles), apex


def _outcome(cut, *args):
    try:
        return cut(*args)
    except PseudoformError as e:
        return ("raised", type(e).__name__, str(e))


def package_sides(K, v, cyc):
    """The package's cut of the link of ``v`` along ``cyc``."""
    moves._unpinched(K, v, cyc)
    return moves._link_sides(K, v, cyc) or ()


def compare_cuts(S) -> "tuple[int, int]":
    """The number of cycles of ``S`` compared and of fan errors."""
    cycles = all_cycles(S)
    K, apex = cone(S)
    got = [_outcome(package_sides, K, apex, cyc) for cyc in cycles]
    assert got == [_outcome(lambda: reference_cycle_cut(S, cyc).sides) for cyc in cycles]
    return len(got), sum(g[:1] == ("raised",) for g in got)


def vertex_links(K):
    at = K._facets_by_vertex()
    return [Surface(frozenset(F - {v} for F in at[v])) for v in sorted(K.vertices)]


# ------------------------------------------------------------- the corpus


CORPUS_GROUPS = {"fixtures": lambda fx, walk: [fx(name) for name in COMPLEX_FIXTURES]}
# the benchmark's walk corpus: sphere walks 100-199, fold walks 0-15
for _lo in range(100, 200, 50):
    CORPUS_GROUPS[f"walks{_lo}"] = (
        lambda fx, walk, lo=_lo: [walk(s, False).complex for s in range(lo, lo + 50)])
CORPUS_GROUPS["foldwalks"] = lambda fx, walk: [walk(s, True).complex for s in FOLD_WALK_SEEDS]


@pytest.mark.parametrize("group", sorted(CORPUS_GROUPS))
def test_cut_matches_the_fan_walk_on_vertex_links(group, fx, walk):
    corpus = CORPUS_GROUPS[group](fx, walk)
    assert corpus
    for K in corpus:
        for S in vertex_links(K):
            n, errors = compare_cuts(S)
            assert n and not errors


def pinched_links(n):
    """The vertex links of ``staircase_sphere(n)`` with two vertices
    that share no neighbour identified, each pair once."""
    out = []
    for S in vertex_links(gen.staircase_sphere(n)):
        nbrs = {v: {x for e in S.edges if v in e for x in e} for v in S.vertices}
        for u, w in itertools.combinations(sorted(S.vertices), 2):
            if not nbrs[u] & nbrs[w]:
                out.append(Surface(
                    frozenset(t - {w} | {u} if w in t else t for t in S.triangles)))
    return out


def test_cut_matches_the_fan_walk_on_pinched_spheres():
    counted = errors = 0
    for n in range(5, 17):
        for S in pinched_links(n):
            got = compare_cuts(S)
            counted += got[0]
            errors += got[1]
    # every pinched sphere has cycles through its pinch vertex
    assert counted > errors > 0


# ---------------------------------------- the public split off normal input


def _glued(A, B, shared):
    """A and a copy of B on labels past A's, B's first ``shared``
    vertices identified with A's first."""
    off = A.fresh_label()
    a, b = sorted(A.vertices), sorted(B.vertices)
    m = {v: v + off for v in b}
    m.update(zip(b[:shared], a[:shared]))
    return SimplicialComplex(set(A.facets) | set(B.relabeled(m).facets))


def _identified(K, k):
    """K with its k-th (in a fixed stride) pair of non-adjacent
    vertices identified."""
    pairs = [(u, w) for u, w in itertools.combinations(sorted(K.vertices), 2)
             if w not in K.neighbors(u)]
    u, w = pairs[(k * 7919) % len(pairs)]
    return SimplicialComplex(K.relabeled({w: u}).facets)


def not_normal_corpus(walk):
    S = gen.staircase_sphere(4)
    out = [_glued(S, S, k) for k in (1, 2, 3)]
    for seed in range(100, 130):
        W = walk(seed, False).complex
        if any(w not in W.neighbors(u) for u, w in itertools.combinations(W.vertices, 2)):
            out += [_identified(W, k) for k in range(3)]
    return out


def _canon(K):
    return tuple(sorted(tuple(sorted(F)) for F in K.facets))


def _split_outcome(K, q):
    try:
        K1, K2, rec = reducer.split_at_missing_tetrahedron(K, q)
    except PseudoformError as e:
        return (type(e).__name__, str(e), getattr(e, "details", None))
    return (_canon(K1), _canon(K2), rec)


# sha256 of the split outcomes on the 220 missing tetrahedra below.
# Recorded with the fan-walk cut, whose corner cuts ran inside the
# split; re-recorded when the split's refusals of a cut that leaves one
# side and of one that leaves three or more merged into one text, with
# the same splits and the same refused tetrahedra
NOT_NORMAL_PINNED = "ba5fe58197a34a3f03fb655147a0a0cb13edae8ceeca801ea0a6f12368fb1310"


def test_split_off_normal_input_is_pinned(walk):
    outs = [(tuple(sorted(q)), _split_outcome(K, q))
            for K in not_normal_corpus(walk) for q in K.missing_faces(3)]
    assert len(outs) == 220
    # corners whose link is no closed surface are refused; the star cut
    # alone would split some of them
    assert any(out[0] == "NotSurfaceError" for _q, out in outs)
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == NOT_NORMAL_PINNED
