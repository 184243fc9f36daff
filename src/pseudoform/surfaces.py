"""Closed triangulated surfaces and cutting one along a cycle.

Vertex links of the 3-complexes studied here are closed surfaces; this
module classifies them (Euler characteristic plus an orientability
sweep over the dual graph).

The moves ask one local question of a link: does a cycle cut it in
two, and what are the two sides?  ``_cut_sides`` is the one answer:
the sides are the components of the triangles joined across every edge
but the cut ones, a component count (``_component_ids``).  Edge
expansion, two-facets insertion and the unfold read it.
``_describe_piece`` says what a side is (a disc, a Moebius strip or
other), and ``_capped_class`` what it becomes once a disc closes off
its boundary circle.  In a projective plane a cycle that leaves one
side is one-sided: its neighbourhood is a Moebius strip.  The connected-sum
split asks the same question one dimension up: its cells are the
facets of a 3-complex, joined across their triangles, and the cut is
the four triangles of a missing tetrahedron.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import NotSurfaceError

SPHERE = "Sphere"
RP2 = "RP2"
TORUS = "Torus"
KLEIN = "Klein"
OTHER = "Other"


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


SPHERE_CLASS = SurfaceClass(SPHERE, 2, True)
RP2_CLASS = SurfaceClass(RP2, 1, False)


def _sum_class(a: SurfaceClass, b: SurfaceClass) -> SurfaceClass:
    """The class of the connected sum of two closed surfaces: the Euler
    characteristics add less 2, and it is orientable when both are."""
    chi = a.euler_characteristic + b.euler_characteristic - 2
    orient = a.orientable and b.orientable
    return SurfaceClass(_classify(chi, orient), chi, orient)


def _closed_class(chi: int, triangles) -> SurfaceClass:
    """The class of a closed surface with Euler characteristic ``chi``
    whose triangles are connected across its edges; ``triangles`` are
    its triangles, or those of the surface less a disc, which has the
    same orientability.

    Unpinching a vertex raises chi and a connected closed surface has
    chi at most 2, so chi = 2 is the 2-sphere and ``triangles`` is not
    read.  Otherwise orientability is swept (``_orientable``), never
    guessed from chi: a sphere with two points identified has chi = 1
    and is orientable."""
    if chi == 2:
        return SPHERE_CLASS
    orient = _orientable(list(triangles))
    return SurfaceClass(_classify(chi, orient), chi, orient)


def _capped_class(triangles) -> SurfaceClass:
    """The class of a capped side: a side of a cut link, whose boundary
    is the one cut circle, with that circle closed off by a disc.  Its
    Euler characteristic is the side's plus one, and it is orientable
    when the side is.  No :class:`Surface` is built."""
    tris = list(triangles)
    edges = {e for t in tris for e in _edges_of(t)}
    return _closed_class(len({v for t in tris for v in t}) - len(edges) + len(tris) + 1, tris)


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
        return _closed_class(self.euler_characteristic, self.triangles)

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


def _cut_sides(cells, cut_faces, faces_of=_edges_of) -> Optional[tuple]:
    """The two sides into which ``cut_faces`` cut ``cells``, which are
    joined across every other face ``faces_of`` gives (by default the
    edges of triangles), the side holding the smallest cell by
    ``sorted`` first; None when the cut leaves not exactly two sides."""
    cut = set(cut_faces)
    comp = _component_ids(cells, lambda t: [e for e in faces_of(t) if e not in cut])
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
