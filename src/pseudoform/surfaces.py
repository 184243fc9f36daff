"""Closed triangulated surfaces and combinatorial cutting.

Vertex links of the 3-complexes studied here are closed surfaces; this
module classifies them (Euler characteristic plus an orientability
sweep over the dual graph) and implements cutting a surface along a
vertex-simple cycle.  Cutting is the workhorse behind several move
preconditions: a missing triangle in a link either separates the link
(annulus neighbourhood) or sits one-sidedly in it (Moebius
neighbourhood), and the two cases trigger different decompositions.

Every cut is a component count (``_component_ids``).  Separation is
decided in one place, ``_cut_sides``: the sides are the components of
the triangles joined across every edge but the cut ones.  The boundary
circles a cut opens are read off the two arcs of triangles at each
cycle vertex, joined across the edges there but the cycle's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CycleError, NotSurfaceError

SPHERE = "Sphere"
RP2 = "RP2"
TORUS = "Torus"
KLEIN = "Klein"
OTHER = "Other"

ANNULUS = "Annulus"
MOEBIUS = "Moebius"


@dataclass(frozen=True)
class SurfaceClass:
    """Classification of a closed connected surface."""

    kind: str
    euler_characteristic: int
    orientable: bool

    def __str__(self) -> str:
        o = "orientable" if self.orientable else "non-orientable"
        return f"{self.kind} (chi={self.euler_characteristic}, {o})"


def _classify(chi: int, orientable: bool) -> str:
    if orientable:
        if chi == 2:
            return SPHERE
        if chi == 0:
            return TORUS
    else:
        if chi == 1:
            return RP2
        if chi == 0:
            return KLEIN
    return OTHER


class Surface:
    """A closed connected triangulated surface.

    Construction validates the closed-surface conditions: triangles
    have three distinct non-negative labels, every edge lies in exactly
    two triangles, and the dual graph is connected.  Violations raise
    :class:`NotSurfaceError`.
    """

    def __init__(self, triangles: Iterable[Iterable[int]]):
        try:
            tris = frozenset(frozenset(t) for t in triangles)
        except TypeError:
            raise NotSurfaceError(
                f"expected triangles as iterables of labels, got {triangles!r}"
            ) from None
        if not tris:
            raise NotSurfaceError("no triangles given")
        vertices = frozenset().union(*tris)
        if not all(isinstance(v, int) and v >= 0 for v in vertices):
            raise NotSurfaceError(
                f"labels must be non-negative integers, got {sorted(map(repr, vertices))}"
            )
        by_edge, edges_of = {}, {}
        for t in tris:
            if len(t) != 3:
                raise NotSurfaceError(f"not a triangle: {sorted(t)}")
            for e in edges_of.setdefault(t, _edges_of(t)):
                by_edge.setdefault(e, []).append(t)
        bad = sorted(
            (tuple(sorted(e)), len(ts)) for e, ts in by_edge.items() if len(ts) != 2
        )
        if bad:
            raise NotSurfaceError(f"edges not in exactly two triangles: {bad[:5]}")
        self.triangles = tris
        self.edges = frozenset(by_edge)
        self.vertices = vertices
        if len(set(_component_ids(tris, edges_of.__getitem__, by_edge).values())) != 1:
            raise NotSurfaceError("surface is not connected")
        self._cache: dict = {}

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    @property
    def is_orientable(self) -> bool:
        got = self._cache.get("orientable")
        if got is None:
            got = _orientable(self.triangles)
            self._cache["orientable"] = got
        return got

    def classify(self) -> SurfaceClass:
        chi = self.euler_characteristic
        # unpinching a vertex raises chi, so chi = 2 is the sphere: no sweep
        orient = chi == 2 or self.is_orientable
        return SurfaceClass(_classify(chi, orient), chi, orient)

    @property
    def g2(self) -> int:
        """The surface g2: f1 - 3*f0 + 6 (0 exactly for the 2-sphere)."""
        return len(self.edges) - 3 * len(self.vertices) + 6

    def __repr__(self) -> str:
        return f"Surface({len(self.vertices)} vertices, {len(self.triangles)} triangles)"


def classify_surface(S) -> SurfaceClass:
    """Classify a closed connected surface.

    Accepts a :class:`Surface` or anything acceptable to its
    constructor (an iterable of triangles, e.g. the facet set of a
    2-dimensional complex).
    """
    if not isinstance(S, Surface):
        S = Surface(S)
    return S.classify()


def surface_g2(S) -> int:
    if not isinstance(S, Surface):
        S = Surface(S)
    return S.g2


# ---------------------------------------------------------------------
# cutting along a cycle
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CutReport:
    """Outcome of cutting a surface along a vertex-simple cycle.

    ``neighborhood`` is ``"Annulus"`` when the cut opens two boundary
    circles (two-sided cycle) and ``"Moebius"`` when it opens one
    (one-sided cycle).  When the cycle separates, ``sides`` holds the
    two triangle sets (original labels) in canonical order - side 0
    contains the lexicographically smallest triangle - and
    ``side_descriptions`` describes each side (``disc``,
    ``moebius-strip`` or ``other``) in the same order.
    """

    cycle: tuple
    is_cycle_in_surface: bool
    separates: bool
    neighborhood: str
    components_after_cut: int
    n_boundary_circles: int
    side_descriptions: tuple
    sides: tuple

    def summary(self) -> str:
        out = f"cycle {self.cycle}: {self.neighborhood}"
        if self.separates:
            out += f", separates into {'+'.join(self.side_descriptions)}"
        else:
            out += ", does not separate"
        return out


def cycle_cut(S: Surface, cycle: Sequence[int]) -> CutReport:
    """Cut a closed surface along a vertex-simple cycle.

    ``cycle`` lists distinct vertices in cyclic order; every
    consecutive pair (wrapping around) must be an edge of ``S``.  A
    cycle of length three bounding an actual triangle is allowed; the
    triangle then forms one side by itself.
    """
    if not isinstance(S, Surface):
        S = Surface(S)
    try:
        cyc = tuple(cycle)
        distinct = len(set(cyc))
    except TypeError:
        raise CycleError(f"cycle must be a sequence of labels, got {cycle!r}") from None
    n = len(cyc)
    if n < 3:
        raise CycleError(f"cycle must have at least three vertices, got {cyc}")
    if distinct != n:
        raise CycleError(f"cycle revisits a vertex: {cyc}")
    for v in cyc:
        if v not in S.vertices:
            raise CycleError(f"cycle vertex {v} is not in the surface")
    ring = [frozenset(e) for e in zip(cyc, cyc[1:] + cyc[:1])]
    for e in ring:
        if e not in S.edges:
            raise CycleError(
                f"consecutive cycle vertices {tuple(sorted(e))} are not an edge"
            )

    prevnext = {cyc[i]: (cyc[i - 1], cyc[(i + 1) % n]) for i in range(n)}

    # Local side assignment: the triangles at each cycle vertex c fall
    # into arcs, joined across the link vertices of c other than its two
    # cycle neighbours.  The fan is one cycle exactly when there are two
    # arcs and the two triangles at a cycle edge lie in different arcs.
    arc_of: dict = {}
    for c in cyc:
        fan = [t for t in S.triangles if c in t]
        ends = {c, *prevnext[c]}
        arc = arc_of[c] = _component_ids(fan, lambda t: t - ends)
        p = prevnext[c][0]
        if max(arc.values()) != 1 or len({arc[t] for t in fan if p in t}) != 2:
            raise NotSurfaceError(f"triangle fan around vertex {c} is not a single cycle")

    # The cut opens each cycle edge into two rim edges, one per triangle
    # at it, between the arcs that triangle lies in at the two ends.
    circles = _count_components(
        ((c, arc_of[c][t]), (d, arc_of[d][t])) for c, d in ring for t in arc_of[c] if d in t
    )
    # Each piece of the cut holds a rim circle, so there are at most two,
    # and one copy of each cycle vertex, so it keeps the original labels.
    sides = _cut_sides(S.triangles, ring) or ()
    return CutReport(
        cycle=cyc,
        is_cycle_in_surface=True,
        separates=bool(sides),
        neighborhood=ANNULUS if circles == 2 else MOEBIUS,
        components_after_cut=2 if sides else 1,
        n_boundary_circles=circles,
        side_descriptions=tuple(_describe_piece(g) for g in sides),
        sides=sides,
    )


def missing_triangle_neighborhood(K, v: int, triangle: Iterable[int]) -> CutReport:
    """Cut the link of ``v`` along the boundary of a missing triangle.

    ``triangle`` must have its three edges in the link of ``v`` while
    not being a triangle of that link itself.  ``K`` is a 3-complex,
    whose facets at ``v`` give the link.
    """
    try:
        t = frozenset(triangle)
    except TypeError:
        raise CycleError(f"expected a triangle of labels, got {triangle!r}") from None
    if len(t) != 3:
        raise CycleError(f"not a triangle: {sorted(triangle)}")
    S = Surface(frozenset(K._link_cells(frozenset((v,)))))
    if t in S.triangles:
        raise CycleError(
            f"triangle {sorted(t)} is a face of the link of {v}, not missing"
        )
    for e in _edges_of(t):
        if e not in S.edges:
            raise CycleError(
                f"edge {tuple(sorted(e))} of the triangle is not in the link of {v}"
            )
    return cycle_cut(S, tuple(sorted(t)))


# ---------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------


def _edges_of(t):
    a, b, c = t
    return (frozenset((a, b)), frozenset((b, c)), frozenset((a, c)))


def _component_ids(cells, faces_of=_edges_of, by_face=None) -> dict:
    """Map each cell to a dual-graph component id (0-based, in order of
    first appearance): cells are joined across the faces ``faces_of``
    gives, by default the edges of triangles.  ``by_face``, when given,
    maps each such face to its cells."""
    if by_face is None:
        by_face = {}
        for t in cells:
            for e in faces_of(t):
                by_face.setdefault(e, []).append(t)
    ids: dict = {}
    next_id = 0
    for t in cells:
        if t in ids:
            continue
        stack = [t]
        ids[t] = next_id
        while stack:
            cur = stack.pop()
            for e in faces_of(cur):
                for other in by_face[e]:
                    if other not in ids:
                        ids[other] = next_id
                        stack.append(other)
        next_id += 1
    return ids


def _cut_sides(triangles, cut_edges) -> Optional[tuple]:
    """The two sides into which ``cut_edges`` cut ``triangles``, which
    are joined across every other edge, the side holding the smallest
    triangle first; None when the cut leaves not exactly two sides."""
    cut = set(cut_edges)
    comp = _component_ids(triangles, lambda t: [e for e in _edges_of(t) if e not in cut])
    if max(comp.values(), default=0) != 1:
        return None
    i0 = comp[min(comp, key=sorted)]
    return (frozenset(t for t, i in comp.items() if i == i0),
            frozenset(t for t, i in comp.items() if i != i0))


def _count_components(edges) -> int:
    """Components of the graph of the edges; visiting pops a vertex."""
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    count = 0
    while adj:
        count += 1
        stack = [next(iter(adj))]
        while stack:
            stack.extend(adj.pop(stack.pop(), ()))
    return count


def _describe_piece(triangles) -> str:
    """Describe a connected surface-with-boundary piece of a cut."""
    count = Counter(e for t in triangles for e in _edges_of(t))
    chi = len({v for t in triangles for v in t}) - len(count) + len(triangles)
    circles = _count_components([e for e, n in count.items() if n == 1])
    if chi == 1 and circles == 1:
        return "disc"
    if chi == 0 and circles == 1:
        return "moebius-strip"
    return f"other(chi={chi}, boundary={circles})"


def _directed_edges(t_sorted, parity: int):
    a, b, c = t_sorted
    if parity == 0:
        return ((a, b), (b, c), (c, a))
    return ((b, a), (c, b), (a, c))


def _orientable(triangles) -> bool:
    """Dual-graph sweep assigning compatible orientations; works for
    surfaces with or without boundary."""
    by_edge: dict = {}
    for t in triangles:
        for e in _edges_of(t):
            by_edge.setdefault(e, []).append(t)
    parity: dict = {}
    for t0 in triangles:
        if t0 in parity:
            continue
        parity[t0] = 0
        stack = [t0]
        while stack:
            t = stack.pop()
            dirs = _directed_edges(tuple(sorted(t)), parity[t])
            for (x, y) in dirs:
                others = by_edge[frozenset((x, y))]
                for t2 in others:
                    if t2 == t:
                        continue
                    # t2 must traverse the shared edge as (y, x)
                    want = 0
                    if (y, x) not in _directed_edges(tuple(sorted(t2)), 0):
                        want = 1
                    if t2 in parity:
                        if parity[t2] != want:
                            return False
                    else:
                        parity[t2] = want
                        stack.append(t2)
    return True
