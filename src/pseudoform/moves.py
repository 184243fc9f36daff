"""Local moves and gluings on 3-dimensional complexes.

Every operation takes a complex, checks its precondition, and returns a
fresh complex together with a :class:`MoveRecord` describing exactly
what was done (including any newly created vertex labels), so a
sequence of records can be replayed bit-for-bit later.  Inputs are
never mutated.

g2 accounting, with ``n`` the degree of the edge involved:

========================  ==========
bistellar 1-move            +1
bistellar 2-move            -1
edge contraction            -(n-3)
edge expansion              +(n-3)
two-facets insertion        -1
two-facets contraction      +1
connected sum                0   (sum of the parts)
handle addition            +10
edge folding                +3
edge unfolding              -3
facet subdivision            0
facet unsubdivision          0
========================  ==========

Vertices created by a move default to ``max label + 1`` (and ``+2``)
so identical inputs give identical outputs; replay passes the recorded
labels back in explicitly.

Each kind is defined once, in :data:`MOVES`: its record schema, its
constructor, its lazy site enumerator and the rule that gives the
singular vertices of the result (:func:`singular_after`).  Every kind
reads that map off its rule; no step rechecks a link.  Replay, the
command line, the random walk and the reducer all dispatch through that
table.  A kind's enumerator and its constructor call the same
precondition function.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .complexes import (SimplicialComplex, _as_complex, _closure, _edge_circle, _link_class,
                        _singular_map, _vertex_link, clean_face, total_g2)
from .errors import (CycleError, MissingFaceError, MoveError, NotSurfaceError, PseudoformError,
                     _refusing)
from . import surfaces

BISTELLAR1 = "Bistellar1"
BISTELLAR2 = "Bistellar2"
EDGE_CONTRACT = "EdgeContract"
EDGE_EXPAND = "EdgeExpand"
TWO_FACETS_INSERT = "TwoFacetsInsert"
TWO_FACETS_CONTRACT = "TwoFacetsContract"
CONNECTED_SUM = "ConnectedSum"
HANDLE_ADD = "HandleAdd"
EDGE_FOLD = "EdgeFold"
EDGE_UNFOLD = "EdgeUnfold"
FACET_SUBDIVIDE = "FacetSubdivide"
FACET_UNSUBDIVIDE = "FacetUnsubdivide"


@dataclass(frozen=True)
class MoveRecord:
    """What a move did: its kind, full parameters, and the g2 shift.

    ``params`` pins down the move completely, fresh labels included,
    so that ``apply_record`` reproduces the exact same complex.  The
    methods raise :class:`MoveError` on a hand-built record whose
    members are not of their types.
    """

    kind: str
    params: tuple  # ordered (key, value) pairs
    g2_delta: int

    @_refusing(MoveError)
    def get(self, key):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    @_refusing(MoveError)
    def param_dict(self) -> dict:
        return dict(self.params)

    @_refusing(MoveError)
    def __str__(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind} {ps} (g2 {self.g2_delta:+d})"


def _record(kind: str, delta: int, **params) -> MoveRecord:
    return MoveRecord(kind, tuple(params.items()), delta)


def _face(labels: Iterable[int]) -> frozenset:
    """``labels`` as a face; :class:`MoveError` if not hashable labels."""
    try:
        return frozenset(labels)
    except TypeError:
        raise MoveError(f"expected a face as an iterable of labels, got {labels!r}") from None


def _edge(edge: Iterable[int]) -> frozenset:
    e = _face(edge)
    if len(e) != 2:
        raise MoveError(f"expected an edge (two labels), got {sorted(e)}")
    return e


def _require_absent_labels(K: SimplicialComplex, labels: Sequence[int]) -> None:
    clash = sorted(_face(labels) & K.vertices)
    if clash:
        raise MoveError(f"fresh labels already in use: {clash}", details=clash)
    if len(_face(labels)) != len(labels):
        raise MoveError(f"fresh labels must be distinct, got {labels}")
    # the only labels a move brings in; _successor trusts them
    clean_face(labels)


def _fresh_one(K: SimplicialComplex, given) -> int:
    """One new label: ``given``, or the next unused one."""
    w = K.fresh_label() if given is None else given
    _require_absent_labels(K, (w,))
    return w


def _fresh_pair(K: SimplicialComplex, given) -> tuple:
    """Two new labels: ``given``, or the next two unused ones."""
    m = K.fresh_label()
    try:
        a, b = (m, m + 1) if given is None else given
    except (TypeError, ValueError):
        raise MoveError(f"expected two fresh labels, got {given!r}") from None
    _require_absent_labels(K, (a, b))
    return a, b


def _star_facets(K: SimplicialComplex, vertex: int) -> list:
    """The facets at ``vertex``; :class:`MissingFaceError` when none."""
    cof = K._cofacets(_face((vertex,)))
    if not cof:
        raise MissingFaceError(f"vertex {vertex} is not in the complex")
    return cof


def _link_sides(K: SimplicialComplex, vertex: int, cycle) -> Optional[tuple]:
    """The two sides into which ``cycle``, link vertices in cyclic order,
    cuts the link of ``vertex`` (``surfaces._cut_sides``), or None.  The
    vertices of a triangle, in any order, are its boundary cycle."""
    cyc = tuple(cycle)
    ring = [frozenset(e) for e in zip(cyc, cyc[1:] + cyc[:1])]
    link = [F - {vertex} for F in K._cofacets(frozenset((vertex,)))]
    return surfaces._cut_sides(link, ring)


def _unpinched(K: SimplicialComplex, vertex: int, cycle) -> None:
    """:class:`NotSurfaceError` when the link of ``vertex`` is pinched at a
    vertex ``c`` of ``cycle``: the link of the edge ``vertex c`` is no single
    circle.  A certified complex (``_singular_map``) is normal: none is."""
    if _singular_map(K) is None:
        for c in cycle:
            if _edge_circle(K, frozenset((vertex, c))) is None:
                raise NotSurfaceError(f"triangle fan around vertex {c} is not a single cycle")


def _passing(check: Callable, K: SimplicialComplex, candidates) -> Iterable:
    """Each candidate ``check`` accepts, with what the check returned.

    A candidate is the tuple of the check's arguments after ``K``; the
    check raises :class:`PseudoformError` where the move does not apply.
    """
    for args in candidates:
        try:
            got = check(K, *args)
        except PseudoformError:
            continue
        yield args, got


# ---------------------------------------------------------------------
# bistellar moves
# ---------------------------------------------------------------------


def _bistellar_two_check(K: SimplicialComplex, e: frozenset) -> tuple:
    """The three facets around ``e`` and their missing apex triangle.
    The degree is read off the edge index."""
    n = K._edge_counts().get(e)
    if not n:
        raise MissingFaceError(f"edge {sorted(e)} is not in the complex")
    if n != 3:
        raise MoveError(f"edge {sorted(e)} has degree {n}, need 3", details=n)
    cof = K._cofacets(e)
    # three distinct facets through e: their apexes span a triangle
    # exactly when there are three of them
    apex = frozenset(v for F in cof for v in F) - e
    if len(apex) != 3:
        raise MoveError(f"link of {sorted(e)} is not a triangle boundary")
    if K.contains_face(apex):
        raise MoveError(
            f"target triangle {sorted(apex)} is already a face",
            details=tuple(sorted(apex)),
        )
    return cof, apex


def bistellar_two(
    K: SimplicialComplex, edge: Iterable[int]
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Bistellar 2-move: retriangulate around a degree-3 edge.

    The edge ``uv`` must have exactly three facets around it, its link
    being the boundary of a triangle ``abc`` that is not a face of the
    complex.  The three facets around ``uv`` are replaced by the two
    facets ``uabc`` and ``vabc``.  g2 drops by one.
    """
    e = _edge(edge)
    cof, apex = _bistellar_two_check(K, e)
    u, v = sorted(e)
    K2 = K._successor(cof, (apex | {u}, apex | {v}))
    rec = _record(
        BISTELLAR2, -1, edge=(u, v), triangle=tuple(sorted(apex))
    )
    return K2, rec


def _bistellar_one_check(K: SimplicialComplex, t: frozenset) -> tuple:
    """The two facets at ``t`` and their non-adjacent apexes ``(u, v)``."""
    if len(t) != 3:
        raise MoveError(f"expected a triangle, got {sorted(t)}")
    cof = K._cofacets(t)
    if not cof:
        raise MissingFaceError(f"triangle {sorted(t)} is not in the complex")
    if len(cof) != 2:
        raise MoveError(f"triangle {sorted(t)} lies in {len(cof)} facets, need 2")
    u, v = sorted(x for F in cof for x in F - t)
    if K.contains_face((u, v)):
        raise MoveError(
            f"apex edge {(u, v)} is already present", details=(u, v)
        )
    return cof, (u, v)


def bistellar_one(
    K: SimplicialComplex, triangle: Iterable[int]
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Bistellar 1-move: the inverse of the 2-move.

    ``triangle`` must lie in exactly two facets, with apexes ``u`` and
    ``v`` not yet joined by an edge.  The two facets are replaced by
    the three facets around the new edge ``uv``.  g2 grows by one.
    """
    t = _face(triangle)
    cof, (u, v) = _bistellar_one_check(K, t)
    ring = {frozenset((u, v)) | frozenset(p) for p in itertools.combinations(sorted(t), 2)}
    K2 = K._successor(cof, ring)
    rec = _record(BISTELLAR1, +1, triangle=tuple(sorted(t)), edge=(u, v))
    return K2, rec


def _iter_bistellar_two_sites(K: SimplicialComplex) -> Iterator:
    edges = ((e,) for e in sorted(K._edge_counts(), key=sorted))
    for (e,), (_cof, apex) in _passing(_bistellar_two_check, K, edges):
        yield tuple(sorted(e)), tuple(sorted(apex))


def bistellar_two_sites(K: SimplicialComplex) -> list:
    """Degree-3 edges whose apex triangle is missing, sorted."""
    return list(_iter_bistellar_two_sites(_as_complex(K, "bistellar_two_sites")))


def _iter_bistellar_one_sites(K: SimplicialComplex) -> Iterator:
    triangles = ((t,) for t in sorted(K.faces(2), key=sorted))
    for (t,), (_cof, apexes) in _passing(_bistellar_one_check, K, triangles):
        yield tuple(sorted(t)), apexes


def bistellar_one_sites(K: SimplicialComplex) -> list:
    """Triangles in two facets whose apexes are not adjacent, sorted."""
    return list(_iter_bistellar_one_sites(_as_complex(K, "bistellar_one_sites")))


# ---------------------------------------------------------------------
# edge contraction / expansion
# ---------------------------------------------------------------------


def _no_extra_vertex(K: SimplicialComplex, u: int, v: int, pos: dict) -> bool:
    """Stage 1: the common neighbours of u and v are the circle's vertices."""
    adj = K.adjacency
    return adj[u] & adj[v] == pos.keys()


def _no_common_triangle(K: SimplicialComplex, u: int, v: int, pos: dict) -> bool:
    """Stage 2: no link triangle ``F - {u}`` of u is one of v, that is
    ``(F - {u}) | {v}`` is no facet."""
    facets = K.facets
    return not any((F - {u}) | {v} in facets for F in K._facets_by_vertex()[u])


def _no_common_chord(K: SimplicialComplex, u: int, v: int, pos: dict) -> bool:
    """Stage 3: no chord of the circle (two of its vertices that are not
    consecutive) is a link edge of both u and v."""
    n = len(pos)
    if n == 3:
        return True
    at = K._facets_by_vertex()

    def chords(x):
        return {frozenset((a, b)) for F in at[x] for a, b in itertools.combinations(F - {x}, 2)
                if a in pos and b in pos and (pos[a] - pos[b]) % n not in (1, n - 1)}

    return not chords(u) & chords(v)


_LINK_STAGES = (_no_extra_vertex, _no_common_triangle, _no_common_chord)


def _link_condition(K: SimplicialComplex, e: frozenset, pos: dict) -> bool:
    """Whether the links of the endpoints u and v of ``e`` meet exactly in
    lk(e), the circle ``pos`` (``_edge_circle``): lk(u) & lk(v) = lk(uv)
    (Dey, Edelsbrunner, Guha and Nekhayev, "Topology preserving edge
    contraction", 1999).  Read off the adjacency and the facets at u and
    v, with no face closure, by the stages of ``_LINK_STAGES`` in turn.

    lk(uv) lies in both links and holds no triangle.  After stage 1 every
    common face lies on the circle's vertices; stage 2 rules out a common
    triangle, and the common edges off lk(uv) are the chords of stage 3.
    """
    u, v = sorted(e)
    return all(stage(K, u, v, pos) for stage in _LINK_STAGES)


def _common_link_faces(K: SimplicialComplex, u: int, v: int) -> set:
    """The faces the links of ``u`` and ``v`` share, as sorted tuples,
    from their face closures; only a refusal lists them."""
    return _closure(K._link_cells(frozenset((u,)))) & _closure(K._link_cells(frozenset((v,))))


def _contract_edge_check(K: SimplicialComplex, e: frozenset) -> None:
    """The link of ``e`` is a circle, and the link condition holds: the
    endpoint links meet exactly in lk(e) (``_link_condition``).  Only a
    refusal lists the extra common faces, from the face closures of the
    two endpoint links."""
    u, v = sorted(e)
    cells = K._link_cells(e)
    pos = _edge_circle(K, e)
    if pos is None:
        raise MoveError(f"link of edge ({u}, {v}) is not a circle")
    if not _link_condition(K, e, pos):
        extra = sorted(_common_link_faces(K, u, v) - _closure(cells))
        raise MoveError(
            f"link condition fails at edge ({u}, {v}): "
            f"extra common faces {[tuple(sorted(f)) for f in extra]}",
            details=tuple(tuple(sorted(f)) for f in extra),
        )


def contract_edge(
    K: SimplicialComplex, edge: Iterable[int], fresh: Optional[int] = None
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Contract an edge satisfying the link condition.

    The condition is that the links of the two endpoints meet exactly
    in the link of the edge; any extra common face is reported in the
    error.  Both endpoint stars are removed and the resulting boundary
    is coned over one fresh vertex.  g2 drops by ``degree - 3``.

    The record carries ``homeomorphic``: True when at least one
    endpoint has a 2-sphere link, in which case the move does not
    change the underlying space.  Contracting an edge between two
    singular vertices is allowed combinatorially but flagged False.
    """
    e = _edge(edge)
    u, v = sorted(e)
    n = K.edge_degree(e)
    _contract_edge_check(K, e)
    w = _fresh_one(K, fresh)
    homeo = False
    for x in (u, v):
        try:
            homeo = homeo or _link_class(K, x).kind == surfaces.SPHERE
        except PseudoformError:  # a link that is no closed surface
            pass
    star = {*_star_facets(K, u), *_star_facets(K, v)}
    K2 = K._successor(star, ((F - e) | {w} for F in star if not e <= F))
    rec = _record(
        EDGE_CONTRACT,
        -(n - 3),
        edge=(u, v),
        fresh=w,
        degree=n,
        homeomorphic=homeo,
    )
    return K2, rec


def _iter_contractible_edges(K: SimplicialComplex) -> Iterator:
    """The edges ``_contract_edge_check`` accepts, decided by the same
    circle and ``_link_condition`` without wording a refusal."""
    counts = K._edge_counts()
    for e in sorted(counts, key=sorted):
        pos = _edge_circle(K, e)
        if pos is not None and _link_condition(K, e, pos):
            yield tuple(sorted(e)), counts[e]


def contractible_edges(K: SimplicialComplex) -> list:
    """Edges satisfying the link condition, as (edge, degree), sorted."""
    return list(_iter_contractible_edges(_as_complex(K, "contractible_edges")))


def expand_edge(
    K: SimplicialComplex,
    vertex: int,
    cycle: Sequence[int],
    u_side: int = 0,
    apexes: Optional[Sequence[int]] = None,
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Expand a vertex into an edge along a separating link cycle.

    The link of ``vertex`` must be a closed surface (its class,
    ``complexes._link_class``), and ``cycle`` a vertex-simple cycle in
    it, at none of whose vertices the link is pinched, that cuts it in
    two (``_link_sides``).  The star of ``vertex`` is replaced by a ring
    of ``n`` facets around the new edge, and each side of the cut link
    is coned over one of the two new apexes.  ``u_side`` picks which
    canonical side the first apex cones (the side containing the
    smallest triangle is side 0).  When one side is a Moebius strip the
    apex over it inherits the non-sphere link; the apex over the disc
    side is always non-singular.  g2 grows by ``n - 3``.

    This is the exact inverse of ``contract_edge``.
    """
    if u_side not in (0, 1):
        raise MoveError(f"u_side must be 0 or 1, got {u_side}")
    star_facets = _star_facets(K, vertex)
    link = _link_class(K, vertex)
    cyc = _link_cycle(K, vertex, cycle)
    _unpinched(K, vertex, cyc)
    sides = _link_sides(K, vertex, cyc)
    if sides is None:
        raise MoveError(f"cycle {cyc} does not separate the link of {vertex}", details=link)
    apex_u, apex_v = _fresh_pair(K, apexes)

    n = len(cyc)
    ring = [
        frozenset((apex_u, apex_v, cyc[i], cyc[(i + 1) % n])) for i in range(n)
    ]
    cone_u = [t | {apex_u} for t in sides[u_side]]
    cone_v = [t | {apex_v} for t in sides[1 - u_side]]
    K2 = K._successor(star_facets, ring + cone_u + cone_v)
    rec = _record(
        EDGE_EXPAND,
        n - 3,
        vertex=vertex,
        cycle=cyc,
        apex_u=apex_u,
        apex_v=apex_v,
        u_side=u_side,
    )
    return K2, rec


def _link_cycle(K: SimplicialComplex, vertex: int, cycle) -> tuple:
    """``cycle`` as a tuple: three or more distinct vertices of the link
    of ``vertex``, each two consecutive ones (wrapping around) an edge
    of it; :class:`CycleError` otherwise."""
    try:
        cyc = tuple(cycle)
        distinct = len(set(cyc))
    except TypeError:
        raise CycleError(f"cycle must be a sequence of labels, got {cycle!r}") from None
    if len(cyc) < 3:
        raise CycleError(f"cycle must have at least three vertices, got {cyc}")
    if distinct != len(cyc):
        raise CycleError(f"cycle revisits a vertex: {cyc}")
    for c in cyc:
        if c == vertex or not K._cofacets(frozenset((vertex, c))):
            raise CycleError(f"cycle vertex {c} is not in the surface")
    for e in map(frozenset, zip(cyc, cyc[1:] + cyc[:1])):
        if not K._cofacets(e | {vertex}):
            raise CycleError(f"consecutive cycle vertices {tuple(sorted(e))} are not an edge")
    return cyc


def _iter_link_cycle_sites(K: SimplicialComplex) -> Iterator:
    """(vertex, 3-cycle) for the triangles and missing triangles of every
    vertex link, lazily, sorted.  These are candidates, not sites: a
    missing triangle need not separate its link, and ``expand_edge``
    decides.
    """
    return ((v, c) for v in sorted(K.vertices) for c in _vertex_link(K, v).cycles)


# ---------------------------------------------------------------------
# two-facets insertion / contraction
# ---------------------------------------------------------------------


def _insert_check(K: SimplicialComplex, vertex: int, t: frozenset) -> tuple:
    """The star of ``vertex`` and the two discs into which ``t``'s
    boundary cuts its link (``_link_sides``).  On a sphere link every
    such cut gives two discs (Jordan-Schoenflies), and two discs glue to
    a sphere.  Off a sphere (``_link_class`` refuses a link that is no
    closed surface) ``t``'s edges must lie in the link, which must not
    be pinched at ``t`` (``_unpinched``), and both sides must be discs."""
    if len(t) != 3:
        raise MoveError(f"expected a triangle, got {sorted(t)}")
    if _face((vertex,)) <= t:
        raise MoveError(f"triangle {sorted(t)} must not contain the vertex {vertex}")
    if K.contains_face(t):
        raise MoveError(
            f"triangle {sorted(t)} is already a face", details=tuple(sorted(t))
        )
    star_facets = _star_facets(K, vertex)
    sides = _link_sides(K, vertex, t)
    link = _link_class(K, vertex)
    if sides is not None and link.kind == surfaces.SPHERE:
        return star_facets, sides
    for e in surfaces._edges_of(t):
        if not K._cofacets(e | {vertex}):
            raise CycleError(f"edge {tuple(sorted(e))} of the triangle is not in the link "
                             f"of {vertex}")
    _unpinched(K, vertex, sorted(t))
    if sides is None:
        raise MoveError(
            f"boundary of {sorted(t)} does not separate the link of {vertex}",
            details=link,
        )
    pieces = tuple(map(surfaces._describe_piece, sides))
    if pieces != ("disc", "disc"):
        raise MoveError(
            f"cut sides of the link of {vertex} are not both discs: {pieces}",
            details=pieces,
        )
    return star_facets, sides


def insert_two_facets(
    K: SimplicialComplex,
    vertex: int,
    triangle: Iterable[int],
    apexes: Optional[Sequence[int]] = None,
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Retriangulate a vertex star through a missing triangle.

    ``triangle`` must have its boundary in the link of ``vertex``
    without being a face of the complex.  The vertex is removed, the
    triangle inserted, and the two spheres formed by the halves of the
    old link plus the triangle are coned over two fresh apexes (apex
    ordering follows the canonical side order of the cut).  g2 drops
    by one.
    """
    t = _face(triangle)
    star_facets, sides = _insert_check(K, vertex, t)
    apex_u, apex_v = _fresh_pair(K, apexes)

    new = [s | {apex_u} for s in sides[0]]
    new += [s | {apex_v} for s in sides[1]]
    new += [t | {apex_u}, t | {apex_v}]
    K2 = K._successor(star_facets, new)
    rec = _record(
        TWO_FACETS_INSERT,
        -1,
        vertex=vertex,
        triangle=tuple(sorted(t)),
        apex_u=apex_u,
        apex_v=apex_v,
    )
    return K2, rec


def _iter_insertion_sites(K: SimplicialComplex) -> Iterator:
    candidates = ((w, t) for w in sorted(K.vertices) for t in _vertex_link(K, w).holes)
    for (w, t), _ in _passing(_insert_check, K, candidates):
        yield w, tuple(sorted(t))


def insertion_sites(K: SimplicialComplex) -> list:
    """Pairs (vertex, missing triangle) admitting two-facets insertion.

    The candidates at a vertex are the missing triangles of its link.
    """
    return list(_iter_insertion_sites(_as_complex(K, "insertion_sites")))


def _shared_triangle(K: SimplicialComplex, u: int, v: int) -> Optional[frozenset]:
    """The one triangle ``t`` in which the closed stars of the vertices
    ``u`` and ``v``, not joined by an edge, meet, together with its
    faces only; None when they meet otherwise.  They meet in
    lk(u) & lk(v), so exactly when u and v have the three common
    neighbours ``t`` and both ``t | {u}`` and ``t | {v}`` are facets."""
    adj = K.adjacency
    t = adj[u] & adj[v]
    if len(t) == 3 and t | {u} in K.facets and t | {v} in K.facets:
        return t
    return None


def _contract_two_facets_check(K: SimplicialComplex, u: int, v: int) -> tuple:
    """The one triangle in which the stars of ``u`` and ``v`` meet
    (``_shared_triangle``), the facets of the two stars, and the
    boundary triangles of their union, which must avoid ``u`` and ``v``.
    Only a refusal of the triangle lists what the stars share, from the
    face closures of the two links."""
    ball = _star_facets(K, u) + _star_facets(K, v)
    if K.contains_face((u, v)):
        raise MoveError(f"vertices {u}, {v} are joined by an edge", details=(u, v))
    t = _shared_triangle(K, u, v)
    if t is None:
        # u and v are not adjacent, so their closed stars meet in lk(u) & lk(v)
        common = _common_link_faces(K, u, v)
        tri = sorted((f for f in common if len(f) == 3), key=sorted)
        if len(tri) != 1:
            raise MoveError(
                f"stars of {u} and {v} meet in {len(tri)} triangles, need exactly 1",
                details=tuple(tuple(sorted(f)) for f in tri),
            )
        stray = sorted((f for f in common if not set(tri[0]).issuperset(f)), key=sorted)
        raise MoveError(
            f"stars of {u} and {v} meet outside one triangle: "
            f"{[tuple(sorted(f)) for f in stray]}",
            details=tuple(tuple(sorted(f)) for f in stray),
        )
    tri_count = Counter(map(frozenset, (
        s for F in ball for s in itertools.combinations(sorted(F), 3))))
    boundary = [s for s, cnt in tri_count.items() if cnt == 1]
    # In a normal complex every triangle at u or v lies in two facets of
    # the ball, so the boundary avoids both; elsewhere it need not.
    through = sorted((tuple(sorted(s)) for s in boundary if u in s or v in s))
    if through:
        raise MoveError(
            f"the boundary of the stars of {u} and {v} has triangles at "
            f"{u} or {v}: {through}; the stars do not form a ball",
            details=tuple(through),
        )
    return t, ball, boundary


def contract_two_facets(
    K: SimplicialComplex, u: int, v: int, fresh: Optional[int] = None
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Merge two vertex stars that meet in a single triangle.

    ``u`` and ``v`` must be non-adjacent with ``star(u) * star(v)``
    exactly one triangle and its faces.  Both stars are removed
    (dropping the shared triangle) and the boundary sphere of the
    union is coned over one fresh vertex.  Equivalent to a bistellar
    1-move at the shared triangle followed by contracting the new
    edge.  g2 grows by one.
    """
    t, ball, boundary = _contract_two_facets_check(K, u, v)
    w = _fresh_one(K, fresh)
    K2 = K._successor(ball, (s | {w} for s in boundary))
    rec = _record(
        TWO_FACETS_CONTRACT,
        +1,
        vertices=(min(u, v), max(u, v)),
        triangle=tuple(sorted(t)),
        fresh=w,
    )
    return K2, rec


def _iter_contraction_pair_sites(K: SimplicialComplex) -> Iterator:
    """Each pair ``contract_two_facets`` accepts, lazily, per vertex u in
    label order: the vertices v > u at distance two from u, in label
    order, whose stars meet in one triangle (``_shared_triangle``) and
    form a ball."""
    adj = K.adjacency
    for u in sorted(adj):
        near = frozenset().union(*map(adj.get, adj[u])) - adj[u]
        candidates = ((u, v) for v in sorted(near) if v > u
                      and _shared_triangle(K, u, v) is not None)
        for (_, v), (t, *_) in _passing(_contract_two_facets_check, K, candidates):
            yield u, v, tuple(sorted(t))


def contraction_pair_sites(K: SimplicialComplex) -> list:
    """Vertex pairs admitting a two-facets contraction, sorted.

    Two stars can share a triangle only when their centres are the
    apexes of the two facets at it, so the pairs are these apexes: per
    vertex u, the vertices v > u across the triangles of u's star that
    are not adjacent to u.  Among the vertices at distance two from u,
    ``_shared_triangle`` finds them from the adjacency and the facet
    index; only they go on to the ball check, and no link closure is
    built unless a refusal is worded.
    """
    return list(_iter_contraction_pair_sites(_as_complex(K, "contraction_pair_sites")))


# ---------------------------------------------------------------------
# gluings: connected sum, handle addition, edge folding
# ---------------------------------------------------------------------


def _check_psi(sigma1: frozenset, sigma2: frozenset, psi: dict) -> dict:
    p = dict(psi) if isinstance(psi, dict) else None
    if p is None or not all(isinstance(x, int) for x in (*p, *p.values())):
        raise MoveError(f"gluing map must be a dict of labels, got {psi!r}")
    if set(p) != set(sigma1) or set(p.values()) != set(sigma2):
        raise MoveError(
            f"gluing map must biject {sorted(sigma1)} onto {sorted(sigma2)}, "
            f"got {sorted(p.items())}"
        )
    if len(set(p.values())) != len(p):
        raise MoveError(f"gluing map is not injective: {sorted(p.items())}")
    return p


def _two_facets(K: SimplicialComplex, sigma1, sigma2) -> tuple:
    s1, s2 = _face(sigma1), _face(sigma2)
    for s in (s1, s2):
        if s not in K.facets:
            raise MissingFaceError(f"{sorted(s)} is not a facet")
    return s1, s2


def _identify_facets(
    K: SimplicialComplex, sigma1: frozenset, psi: dict
) -> SimplicialComplex:
    """Relabel psi's targets back onto sigma1, drop the merged facet.
    Only the facets at the targets are rewritten."""
    back = {w: x for x, w in psi.items()}
    at = K._facets_by_vertex()
    touched = {F for w in back for F in at.get(w, ())}
    images = {frozenset(back.get(v, v) for v in F) for F in touched}
    if any(len(G) != len(sigma1) for G in images):
        # a facet holding a vertex and its image: the usual error, for
        # the first such facet in the order of K.facets
        for F in K.facets:
            clean_face(back.get(v, v) for v in F)
    # the relabelled facets number one less than before exactly when
    # the images collide once, with each other or with the facets kept
    if sum(G in touched or G not in K.facets for G in images) != len(touched) - 1:
        raise MoveError(
            "identification collapsed facets beyond the glued pair; "
            "the gluing map is not admissible"
        )
    return K._successor(touched | {sigma1}, images - {sigma1})


def _gluing_record(kind, delta, s1, s2, p, **derived) -> MoveRecord:
    return _record(
        kind, delta, sigma1=tuple(sorted(s1)), sigma2=tuple(sorted(s2)),
        psi=tuple(sorted(p.items())), **derived,
    )


def connected_sum(
    K1: SimplicialComplex,
    sigma1: Iterable[int],
    K2: SimplicialComplex,
    sigma2: Iterable[int],
    psi: dict,
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Glue two complexes along one facet each and remove it.

    Label spaces must be disjoint.  ``psi`` maps the vertices of
    ``sigma1`` (in ``K1``) bijectively onto those of ``sigma2`` (in
    ``K2``); the identified facet disappears.  g2 of the result is the
    sum of the parts.
    """
    if _as_complex(K1, "connected_sum").vertices & _as_complex(K2, "connected_sum").vertices:
        raise MoveError(
            f"label spaces overlap: {sorted(K1.vertices & K2.vertices)}"
        )
    union = SimplicialComplex(K1.facets | K2.facets)
    return connected_sum_in(union, sigma1, sigma2, psi)


def connected_sum_in(
    K: SimplicialComplex, sigma1: Iterable[int], sigma2: Iterable[int], psi: dict
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Connected sum of two components of one (disconnected) complex."""
    s1, s2 = _two_facets(K, sigma1, sigma2)
    p = _check_psi(s1, s2, psi)
    comp = K._components()
    if comp[min(s1)] == comp[min(s2)]:
        raise MoveError(
            "connected sum needs the two facets in different components; "
            "use handle addition within one component"
        )
    return _identify_facets(K, s1, p), _gluing_record(CONNECTED_SUM, 0, s1, s2, p)


def _sum_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after a connected sum or a handle addition with
    parameters ``p``, from the map before it: each glued vertex x gets
    lk(x) # lk(psi(x)) (``surfaces._sum_class``), and the targets of psi
    are gone.

    Only the facets at the targets change.  The link of a glued vertex x
    is lk(x) and lk(psi(x)), each less the open triangle of its removed
    facet, glued along the boundaries of those triangles: their
    connected sum, as long as the two links meet nowhere else.  For a
    sum the two facets lie in different components, so they share
    nothing.  For a handle the check has proved that psi moves every
    vertex of sigma1 to distance at least 3 (Walkup, "The lower bound
    conjecture for 3- and 4-manifolds", 1970).  A vertex the two links
    share off the glued triangle would be a common neighbour of x and
    psi(x), or a vertex y of sigma1 next to psi(x), or psi(y) next to
    x: each a path of length 2 from a vertex to its image.  For the same
    reason every other vertex sees at most one of x and psi(x), and
    keeps its link up to relabelling.
    """
    out = singular
    for x, w in p["psi"]:
        out = _merged(out, (x, w), x)
    return out


def _merged(singular: dict, pair: tuple, w: int) -> dict:
    """``singular`` with the two vertices of ``pair`` merged into ``w``,
    whose link is the connected sum of theirs."""
    cls = surfaces._sum_class(*(singular.get(x, surfaces.SPHERE_CLASS) for x in pair))
    return _classed(singular, pair, [(w, cls)])


def _classed(singular: dict, gone, new) -> dict:
    """``singular`` less the vertices ``gone``, with each (vertex, class)
    of ``new`` whose class is not the sphere."""
    out = {v: cls for v, cls in singular.items() if v not in gone}
    out.update((v, cls) for v, cls in new if cls.kind != surfaces.SPHERE)
    return out


def _two_path(K: SimplicialComplex, a: int, b: int, avoid=frozenset()):
    """A vertex path of length at most 2 from ``a`` to ``b`` whose middle
    vertex is not in ``avoid`` (the smallest such middle), or None."""
    adj = K.adjacency
    if a == b:
        return (a,)
    if b in adj[a]:
        return (a, b)
    middles = (adj[a] & adj[b]) - avoid
    return (a, min(middles), b) if middles else None


def _handle_check(
    K: SimplicialComplex, sigma1: Iterable[int], sigma2: Iterable[int], psi: dict
) -> tuple:
    """The two facets of one component and the checked gluing map,
    which moves every vertex to graph distance at least 3."""
    s1, s2 = _two_facets(K, sigma1, sigma2)
    if s1 == s2:
        raise MoveError("cannot glue a facet to itself")
    p = _check_psi(s1, s2, psi)
    comp = K._components()
    if comp[min(s1)] != comp[min(s2)]:
        raise MoveError(
            "handle addition needs both facets in one component; "
            "use connected sum across components"
        )
    for x in sorted(s1):
        path = _two_path(K, x, p[x])
        if path is not None:
            raise MoveError(
                f"gluing map moves {x} to {p[x]} at distance {len(path) - 1} < 3 "
                f"(path {list(path)})",
                details=path,
            )
    return s1, s2, p


def handle_addition(
    K: SimplicialComplex, sigma1: Iterable[int], sigma2: Iterable[int], psi: dict
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Glue two facets of one connected complex along an admissible map.

    ``psi`` must move every vertex to graph distance at least 3; the
    error reports a violating short path.  The identified facet is
    removed.  g2 grows by 10.
    """
    s1, s2, p = _handle_check(K, sigma1, sigma2, psi)
    return _identify_facets(K, s1, p), _gluing_record(HANDLE_ADD, +10, s1, s2, p)


def handle_sites(K: SimplicialComplex) -> Iterator:
    """Admissible handles as (sigma1, sigma2, psi-pairs), lazily, sorted.
    Only maps sending every corner to distance at least 3 are checked;
    facets sharing a vertex have none, and are skipped."""
    K = _as_complex(K, "handle_sites")

    def candidates():
        for s1, s2 in itertools.combinations(K.canonical_facets(), 2):
            if not set(s1) & set(s2):
                far = {(x, y) for x in s1 for y in s2 if _two_path(K, x, y) is None}
                for image in itertools.permutations(s2):
                    if far.issuperset(zip(s1, image)):
                        yield s1, s2, dict(zip(s1, image))

    return ((s1, s2, tuple(sorted(psi.items())))
            for (s1, s2, psi), _ in _passing(_handle_check, K, candidates()))


def _edge_fold_check(
    K: SimplicialComplex, sigma1: Iterable[int], sigma2: Iterable[int], psi: dict
) -> tuple:
    """The two facets, their shared edge and the checked gluing map.
    After these checks the identification merges no second facet pair:
    that would give a free corner and its image a common neighbour off
    the folding edge, which the 2-path check forbids."""
    s1, s2 = _two_facets(K, sigma1, sigma2)
    shared = s1 & s2
    if len(shared) != 2:
        raise MoveError(
            f"facets must share exactly one edge, these share {sorted(shared)}"
        )
    u, v = sorted(shared)
    p = _check_psi(s1, s2, psi)
    if p.get(u) != u or p.get(v) != v:
        raise MoveError(
            f"gluing map must fix the shared edge ({u}, {v}) pointwise"
        )
    for y in sorted(s1 - shared):
        path = _two_path(K, y, p[y], avoid=shared)
        if path is not None:
            raise MoveError(
                f"fold pairs adjacent vertices {y} and {p[y]}" if len(path) == 2
                else f"2-path from {y} to {p[y]} through {path[1]} avoids the "
                f"folding edge ({u}, {v})",
                details=path,
            )
    # The fold glues the edge ab of the link circle of uv (a, b the
    # free corners of sigma1) onto the edge p(a)p(b).  Without those two
    # edges the circle is two arcs, and the matching keeps it in one
    # piece exactly when p(a) lies on the arc that does not hold a: when
    # a -> b and p(a) -> p(b) step the same way around the circle.  The
    # other matching splits it in two and pinches the complex along uv.
    a, b = sorted(s1 - shared)
    pos = _edge_circle(K, shared)
    if pos is not None:
        split = (pos[a] - pos[b]) * (pos[p[a]] - pos[p[b]]) % len(pos) != 1
    else:  # no circle: count the pieces the glued link edges leave
        merge = {p[a]: a, p[b]: b}
        glued = [[merge.get(x, x) for x in F - shared]
                 for F in K._cofacets(shared) if F not in (s1, s2)]
        split = surfaces._count_components(glued) != 1
    if split:
        raise MoveError(
            f"this matching splits the link circle of ({u}, {v}) in two; "
            "use the reversed pairing of the free corners",
            details=(u, v),
        )
    return s1, s2, shared, p


def edge_fold(
    K: SimplicialComplex, sigma1: Iterable[int], sigma2: Iterable[int], psi: dict
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Fold two facets sharing exactly one edge onto each other.

    ``psi`` fixes the shared edge ``uv`` pointwise and matches the
    remaining vertices; it is admissible when every path of length at
    most 2 between a vertex and its image passes through ``u`` or
    ``v``.  Folding a sphere along an edge makes exactly the two edge
    endpoints singular, with projective-plane links.  g2 grows by 3.
    """
    s1, s2, shared, p = _edge_fold_check(K, sigma1, sigma2, psi)
    fold_map = {y: w for y, w in p.items() if y not in shared}
    K2 = _identify_facets(K, s1, fold_map)
    return K2, _gluing_record(EDGE_FOLD, +3, s1, s2, p, edge=tuple(sorted(shared)))


def fold_sites(K: SimplicialComplex) -> Iterator:
    """Admissible folds as (sigma1, sigma2, psi-pairs), lazily, sorted.

    The candidates come per edge uv: two facets at uv that share no
    other vertex, in the order of the sorted facet pairs, with a map
    that fixes uv and either matching of the remaining corners.  Each
    candidate passes when it passes ``edge_fold``'s own precondition,
    whose circle test reads the matching against the cyclic order of
    the link of uv, so listing folds builds no complex.
    """
    K = _as_complex(K, "fold_sites")

    def candidates():
        facets = K.canonical_facets()
        at_edge: dict = {}
        for i, F in enumerate(facets):
            for e in itertools.combinations(F, 2):
                at_edge.setdefault(e, []).append(i)
        sets = [set(F) for F in facets]
        pairs = sorted((i, j) for cof in at_edge.values()
                       for i, j in itertools.combinations(cof, 2)
                       if len(sets[i] & sets[j]) == 2)
        for i, j in pairs:
            s1, s2 = facets[i], facets[j]
            shared = [x for x in s1 if x in sets[j]]
            rest1 = [x for x in s1 if x not in shared]
            rest2 = [x for x in s2 if x not in shared]
            for r2 in (rest2, rest2[::-1]):
                yield s1, s2, dict(zip(shared + rest1, shared + r2))

    return ((s1, s2, tuple(sorted(psi.items())))
            for (s1, s2, psi), _ in _passing(_edge_fold_check, K, candidates()))


# ---------------------------------------------------------------------
# edge unfolding
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class UnfoldSite:
    """A missing tetrahedron that witnesses a previous edge fold.

    ``moebius_edge`` holds the two corners whose links are projective
    planes that the opposite triangle does not separate (one-sided, a
    Moebius neighbourhood); ``split_pair`` the two corners whose links
    it separates.
    """

    tetra: tuple
    moebius_edge: tuple
    split_pair: tuple


def _corner_links(K: SimplicialComplex, quad: frozenset) -> dict:
    """Each corner of the missing tetrahedron ``quad`` -> the class of its
    link; :class:`NotSurfaceError` when that link is no closed surface
    or is pinched at another corner (that edge's link is no circle)."""
    _missing_tetrahedron_check(K, quad)
    links = {}
    for x in sorted(quad):
        links[x] = _link_class(K, x)
        _unpinched(K, x, sorted(quad - {x}))
    return links


def _missing_tetrahedron_check(K: SimplicialComplex, quad: frozenset) -> None:
    """Four labels whose triangles are all faces, the four not a facet."""
    triangles = (quad - {x} for x in quad)
    if len(quad) != 4 or quad in K.facets or not all(map(K.contains_face, triangles)):
        raise MoveError(f"{sorted(quad)} is not a missing tetrahedron")


def _unfold_check(K: SimplicialComplex, quad: frozenset) -> tuple:
    """A missing tetrahedron with two Moebius and two separating
    corners: those corner pairs, the cut side (0 or 1) of each facet at
    each separating corner, and the side at the second that pairs with
    side 1 at the first.  A Moebius corner has an RP^2 link that the
    opposite triangle does not separate: such a cycle is one-sided."""
    links = _corner_links(K, quad)
    sides = {x: _link_sides(K, x, quad - {x}) for x in sorted(quad)}
    moeb = tuple(x for x in sides if not sides[x] and links[x].kind == surfaces.RP2)
    seps = tuple(x for x in sides if sides[x])
    if len(moeb) != 2 or len(seps) != 2:
        raise MoveError(
            f"corner pattern of {sorted(quad)} does not witness a fold: "
            f"moebius at {list(moeb)}, separating at {list(seps)}",
            details=(moeb, seps),
        )
    a, b = seps
    # a separating corner's two cut sides cover its link
    side_a = {F: int(F - {a} in sides[a][1]) for F in _star_facets(K, a)}
    side_b = {F: int(F - {b} in sides[b][1]) for F in _star_facets(K, b)}
    # Pair the sides through the facets containing the edge ab: sides
    # seen together belong to the same reinstated facet.
    pairing: dict = {}
    for F in K._cofacets(frozenset((a, b))):
        if pairing.setdefault(side_a[F], side_b[F]) != side_b[F]:
            raise MoveError(
                f"link sides at {a} and {b} do not pair consistently",
                details=(a, b),
            )
    return moeb, seps, side_a, side_b, pairing[1] if 1 in pairing else 1 - pairing[0]


def _iter_unfold_sites(K: SimplicialComplex) -> Iterator:
    """(tetra, moebius_edge, split_pair) of each missing tetrahedron
    that ``edge_unfold`` accepts, lazily, sorted."""
    quads = ((q,) for q in K.missing_faces(3))
    for (quad,), (moeb, seps, *_sides) in _passing(_unfold_check, K, quads):
        yield tuple(sorted(quad)), moeb, seps


def detect_unfold(K: SimplicialComplex) -> Optional[UnfoldSite]:
    """The first site of ``_iter_unfold_sites``, or None."""
    site = next(_iter_unfold_sites(_as_complex(K, "detect_unfold")), None)
    return None if site is None else UnfoldSite(*site)


def edge_unfold(
    K: SimplicialComplex,
    tetra: Iterable[int],
    fresh: Optional[Sequence[int]] = None,
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Undo an edge fold at a witnessing missing tetrahedron.

    The tetrahedron must be missing with exactly two Moebius corners
    (the folded edge: projective-plane links that the opposite triangle
    does not separate, cut open by the unfold) and two corners whose
    links it separates.  Each separating corner is
    split into its two link sides, the matching side pairs receive the
    two reinstated facets, and both Moebius links become spheres.  g2
    drops by 3.
    """
    quad = _face(tetra)
    (u, v), (a, b), side_a, side_b, b_side = _unfold_check(K, quad)
    a2, b2 = _fresh_pair(K, fresh)

    # Fresh a2 and b2 make the relabelling one-to-one, and its image
    # avoids the missing tetrahedron, so the two new facets are new.
    star = side_a.keys() | side_b.keys()
    out = [frozenset((u, v, a, b)), frozenset((u, v, a2, b2))]
    for F in star:
        G = F
        if a in F and side_a[F] == 1:
            G = (G - {a}) | {a2}
        if b in F and side_b[F] == b_side:
            G = (G - {b}) | {b2}
        out.append(G)
    K2 = K._successor(star, out)
    rec = _record(
        EDGE_UNFOLD,
        -3,
        tetra=tuple(sorted(quad)),
        moebius_edge=(u, v),
        split_pair=(a, b),
        fresh=(a2, b2),
    )
    return K2, rec


# ---------------------------------------------------------------------
# facet subdivision
# ---------------------------------------------------------------------


def facet_subdivide(
    K: SimplicialComplex, facet: Iterable[int], fresh: Optional[int] = None
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Replace a facet by the cone over its boundary from a new vertex.

    g2 is unchanged.
    """
    s = _face(facet)
    if s not in K.facets:
        raise MissingFaceError(f"{sorted(s)} is not a facet")
    w = _fresh_one(K, fresh)
    K2 = K._successor((s,), ((s - {x}) | {w} for x in s))
    rec = _record(FACET_SUBDIVIDE, 0, facet=tuple(sorted(s)), fresh=w)
    return K2, rec


def _unsubdivide_check(K: SimplicialComplex, vertex: int) -> tuple:
    """The four facets around ``vertex`` and the missing tetrahedron
    they surround."""
    cof = _star_facets(K, vertex)
    if len(cof) != 4:
        raise MoveError(
            f"vertex {vertex} has {len(cof)} facets around it, need 4",
            details=len(cof),
        )
    tetra = frozenset(x for F in cof for x in F) - {vertex}
    if len(tetra) != 4:
        raise MoveError(f"link of {vertex} is not a tetrahedron boundary")
    if tetra in K.facets:
        raise MoveError(
            f"surrounding tetrahedron {sorted(tetra)} is already a facet; "
            "unsubdividing would collapse the simplex boundary"
        )
    return cof, tetra


def facet_unsubdivide(
    K: SimplicialComplex, vertex: int
) -> "tuple[SimplicialComplex, MoveRecord]":
    """Remove a degree-4 vertex, reinstating its surrounding facet.

    The link of ``vertex`` must be the boundary of a tetrahedron that
    is not currently a facet (if it were, the complex would be the
    boundary of the 4-simplex and removing the vertex would not leave
    a closed complex).  g2 is unchanged.
    """
    cof, tetra = _unsubdivide_check(K, vertex)
    K2 = K._successor(cof, (tetra,))
    rec = _record(
        FACET_UNSUBDIVIDE, 0, vertex=vertex, facet=tuple(sorted(tetra))
    )
    return K2, rec


def _iter_unsubdividable_vertices(K: SimplicialComplex) -> Iterator:
    vertices = ((w,) for w in sorted(K.vertices))
    for (w,), (_cof, tetra) in _passing(_unsubdivide_check, K, vertices):
        yield w, tuple(sorted(tetra))


def unsubdividable_vertices(K: SimplicialComplex) -> list:
    """Degree-4 vertices whose surrounding tetrahedron is missing."""
    return list(_iter_unsubdividable_vertices(_as_complex(K, "unsubdividable_vertices")))


# ---------------------------------------------------------------------
# links rules: the singular map after a move, read off its record
# ---------------------------------------------------------------------
#
# Each rule is called as ``links(K, values, singular)``: the complex the
# move starts from, whose components are all normal closed, the values
# of the record, and the map that ``K`` carries, once the move's own
# check has passed.  A rule builds no link ``Surface``.  A 3-complex is
# normal closed component by component exactly when every vertex link
# is a closed connected surface: an edge's link is then the link of a
# vertex in a surface, a circle, and a triangle lies in two facets.  So
# a rule proves that K2 is normal by showing that every vertex of a
# changed facet gets a closed connected surface as its link.


def _pachner_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after a bistellar move or a facet subdivision or
    unsubdivision: the map before it (Pachner, "PL homeomorphic
    manifolds are equivalent by elementary shellings", 1991).

    Each of these moves replaces a ball by a ball with the same
    boundary, and its check has proved the face it brings in absent: the
    apex edge uv of a 1-move, the apex triangle of a 2-move, the
    surrounding tetrahedron of an unsubdivision; a subdivision brings
    in a fresh vertex.  So the link of each vertex of the changed facets
    that stays undergoes a 2-dimensional bistellar move whose new face
    is absent from that link: a 1-move gives lk(u) the cone from v over
    the triangle's boundary in place of the triangle, and each corner a
    of the triangle the flip of the edge opposite a to uv; a 2-move and
    an unsubdivision undo such steps, a subdivision cones a triangle of
    each corner's link from the fresh vertex.  A closed surface stays a
    closed surface of the same class.  A vertex that a move brings in or
    takes away has a tetrahedron boundary, a sphere, as its link.
    """
    return dict(singular)


def _contract_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after an edge contraction: the endpoints u and v
    leave it, and the fresh vertex w gets lk(u) # lk(v)
    (``surfaces._sum_class``; Dey, Edelsbrunner, Guha and Nekhayev,
    "Topology preserving edge contraction", 1999).

    The check has proved that lk(uv) is a circle C and that the link
    condition lk(u) & lk(v) = lk(uv) holds.  In lk(u) the closed star of
    v is the cone over C, a disc, and so is the star of u in lk(v).
    lk(w) is the two links with those discs taken out, glued along C,
    and by the link condition they meet nowhere else: a connected sum.
    At a vertex x of C, lk(x) undergoes the contraction of its edge uv,
    and the link condition passes down to it: a face s in
    lk(ux) & lk(vx) gives s + x in lk(u) & lk(v) = lk(uv), so s lies in
    lk(uvx).  Contracting an edge of a closed surface under the link
    condition keeps its class.  A vertex joined to both u and v lies in
    lk(u) & lk(v) = lk(uv), on C, so every other vertex of the two stars
    sees only u or v renamed to w, and keeps its link.
    """
    return _merged(singular, p["edge"], p["fresh"])


def _two_facets_contract_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after a two-facets contraction of u and v: both
    leave it, and the fresh vertex gets lk(u) # lk(v).

    The move is a bistellar 1-move at the one triangle t that the two
    stars share, followed by the contraction of the new edge uv
    (``contract_two_facets``).  The check has proved u and v not joined
    and their stars meeting in t and its faces only, so t has the
    cofacets u + t and v + t and the 1-move applies.  After it, lk(u) &
    lk(v) is the boundary of t, which is lk(uv): the link condition
    holds.  ``_pachner_links`` and then ``_contract_links`` give the map.
    """
    return _merged(singular, p["vertices"], p["fresh"])


def _insert_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after a two-facets insertion at x: the map
    before it, since x has a sphere link.

    The check has proved that the boundary of the missing triangle t cuts
    lk(x) into two discs, and two discs glued along their boundary circle
    make a sphere.  The move takes x out and closes each disc with t,
    coned over a fresh apex, so each apex gets a sphere link.  At a
    vertex c of t, lk(c) loses the star of x, a disc bounded by the
    circle lk(cx), and gains a disc with the same boundary whose inner
    vertices are the two apexes: their fans over the two arcs into which
    the cut splits that circle, joined by the two triangles at the edge
    of t opposite c (absent from lk(c), because t is no face).  So lk(c)
    keeps its class.  Every other vertex of lk(x) sees only x renamed to
    an apex.
    """
    return dict(singular)


def _expand_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after an edge expansion at x: x leaves it, and
    each apex gets the capped class of the side of lk(x) it cones
    (``surfaces._capped_class``); at a sphere x, the map before it.

    The check has proved that the cycle, at none of whose vertices lk(x)
    is pinched, cuts lk(x) into two sides, and ``u_side`` picks the side
    that the first apex cones.  That apex's link is its side closed off
    by the cone from the other apex over the cycle, a disc: a capped
    side.  On a sphere both sides are discs (Jordan-Schoenflies), so
    both apexes get sphere links and nothing needs cutting.  At a vertex
    c of the cycle, lk(c) loses the star of x, a disc bounded by the
    circle lk(cx), and gains a disc with the same boundary: the apexes'
    fans over the two arcs into which the cut splits that circle, joined
    by the two triangles at the new edge.  So lk(c) keeps its class.
    Every other vertex of lk(x) sees only x renamed to an apex.
    """
    x, u = p["vertex"], p["u_side"]
    if x not in singular:
        return dict(singular)
    sides = _link_sides(K, x, p["cycle"])
    return _classed(singular, (x,), [(p["apex_u"], surfaces._capped_class(sides[u])),
                                     (p["apex_v"], surfaces._capped_class(sides[1 - u]))])


def _fold_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after an edge fold of sigma1 onto sigma2 along
    their common edge uv: each free corner y of sigma1 is merged with
    psi(y) (``_merged``), and u and v each get their class # RP^2, with
    one less Euler characteristic and no orientation.

    The 2-path test has proved that every path of length at most 2 from
    y to psi(y) passes through u or v, so lk(y) and lk(psi(y)) meet only
    in u, v and the edge uv, on the boundary of the glued triangle: the
    merged link is their connected sum, as for a handle
    (``_sum_links``).  A vertex off the two facets sees at most one of y
    and psi(y), and keeps its link up to relabelling.  In lk(u) the fold
    glues the triangles v a b and v psi(a) psi(b), which meet only at
    v, onto each other with v fixed, and removes them.  Their union has
    a disc D around it, which the gluing turns into a surface with one
    boundary circle and Euler characteristic one less, 0: the two merged
    corners are no pinch by the 2-path test, and v is none because the
    circle test has proved lk(uv), the circle around v, still one
    circle.  A surface with Euler characteristic 0 and one boundary
    circle is a Moebius strip, so lk(u) becomes lk(u) # RP^2, and so
    does lk(v).
    """
    out = singular
    for y, w in p["psi"]:
        if y != w:
            out = _merged(out, (y, w), y)
    rp2 = [(x, surfaces._sum_class(out.get(x, surfaces.SPHERE_CLASS), surfaces.RP2_CLASS))
           for x in p["edge"]]
    return _classed(out, (), rp2)


def _unfold_links(K: SimplicialComplex, p: dict, singular: dict) -> dict:
    """The singular map after an edge unfold: the two Moebius corners
    leave it, and each split corner and its fresh twin get the capped
    class of their side of its cut link (``surfaces._capped_class``).

    The check has proved that the Moebius corners u and v have RP^2
    links, and that the triangle opposite each split corner, a or b,
    cuts its link into two sides, paired across a and b through the
    facets at both.  The move gives the facets on one side of a to its
    fresh twin a2, those on one side of b to b2, and adds the facets
    u v a b and u v a2 b2, whose triangles at a and a2 close off the two
    sides of lk(a) along their common boundary circle u v b: each gets a
    capped side, and so do b and b2.  A split corner with a sphere link
    has two discs as its sides, which cap to spheres, so only a singular
    split corner needs the cut.  K is the fold of the result at the two
    new facets along uv, so by ``_fold_links`` the new link of u, summed
    with RP^2, is the RP^2 that lk(u) was in K: it has Euler
    characteristic 2 and is a sphere, and so is the new link of v.
    Every other vertex lies on one side of each cut, and sees a split
    corner renamed to its twin or not at all.
    """
    gone = (*p["moebius_edge"], *p["split_pair"])
    if not singular.keys() & set(p["split_pair"]):
        return _classed(singular, gone, ())
    _moeb, (a, b), side_a, side_b, b_side = _unfold_check(K, frozenset(p["tetra"]))
    (a2, b2), caps = p["fresh"], []
    for x, twin, side, moved in ((a, a2, side_a, 1), (b, b2, side_b, b_side)):
        for y, s in ((x, 1 - moved), (twin, moved)):
            caps.append((y, surfaces._capped_class(F - {x} for F, i in side.items() if i == s)))
    return _classed(singular, gone, caps)


# ---------------------------------------------------------------------
# the move table
# ---------------------------------------------------------------------

# Roles of a record key: chosen by the caller, a new vertex label
# (defaulting to the next unused ones), or worked out by the move.
INPUT, FRESH, DERIVED = "input", "fresh", "derived"

# Shapes of a record value: a label (or count), a flag, a fixed-length
# label tuple, a link cycle (three labels or more), and a gluing map as
# four sorted (vertex, image) pairs.
LABEL, FLAG, CYCLE = int, bool, (int, ...)
EDGE, TRIANGLE, TETRA = (int,) * 2, (int,) * 3, (int,) * 4
PSI = ((int, int),) * 4


@dataclass(frozen=True)
class Param:
    """One key of a move's record: its role and the shape of its value."""

    key: str
    role: str
    shape: object


@dataclass(frozen=True)
class Move:
    """One kind of move.

    ``params`` is its record schema, in record order.
    ``construct(K, values)`` runs the public constructor on the inputs
    and fresh labels in ``values``, a dict keyed like the record
    (derived keys are ignored; absent fresh labels take the default).
    ``sites(K)`` yields every site the constructor accepts, found by its
    precondition check, lazily and in sorted order, each starting with
    the inputs in schema order; EdgeExpand's are candidate cycles, which
    the constructor may reject.  It is None only for ConnectedSum.
    ``construct`` looks the public constructor up when called, so
    wrappers put on this module (a profiler, a tracer) see every move
    made through the table.
    ``links(K, values, singular)`` is the singular map of the result,
    read off the complex the move starts from, the record's values and
    the map that complex carries (see :func:`singular_after`, which
    stores the map on the result).  Every kind has one, and each rule's
    docstring argues from the move's check what class every vertex of
    the result keeps or gets.
    """

    params: tuple
    construct: Callable
    sites: Optional[Callable]
    links: Callable

    @property
    def inputs(self) -> tuple:
        return tuple(p.key for p in self.params if p.role == INPUT)


def _apexes(p: dict) -> Optional[tuple]:
    return (p["apex_u"], p["apex_v"]) if "apex_u" in p else None


_GLUING = (Param("sigma1", INPUT, TETRA), Param("sigma2", INPUT, TETRA),
           Param("psi", INPUT, PSI))

MOVES = {
    BISTELLAR1: Move(
        (Param("triangle", INPUT, TRIANGLE), Param("edge", DERIVED, EDGE)),
        lambda K, p: bistellar_one(K, p["triangle"]),
        _iter_bistellar_one_sites, _pachner_links),
    BISTELLAR2: Move(
        (Param("edge", INPUT, EDGE), Param("triangle", DERIVED, TRIANGLE)),
        lambda K, p: bistellar_two(K, p["edge"]),
        _iter_bistellar_two_sites, _pachner_links),
    EDGE_CONTRACT: Move(
        (Param("edge", INPUT, EDGE), Param("fresh", FRESH, LABEL),
         Param("degree", DERIVED, LABEL), Param("homeomorphic", DERIVED, FLAG)),
        lambda K, p: contract_edge(K, p["edge"], fresh=p.get("fresh")),
        _iter_contractible_edges, _contract_links),
    EDGE_EXPAND: Move(
        (Param("vertex", INPUT, LABEL), Param("cycle", INPUT, CYCLE),
         Param("apex_u", FRESH, LABEL), Param("apex_v", FRESH, LABEL),
         Param("u_side", INPUT, LABEL)),
        lambda K, p: expand_edge(
            K, p["vertex"], p["cycle"], p["u_side"], _apexes(p)),
        _iter_link_cycle_sites, _expand_links),
    TWO_FACETS_INSERT: Move(
        (Param("vertex", INPUT, LABEL), Param("triangle", INPUT, TRIANGLE),
         Param("apex_u", FRESH, LABEL), Param("apex_v", FRESH, LABEL)),
        lambda K, p: insert_two_facets(K, p["vertex"], p["triangle"], _apexes(p)),
        _iter_insertion_sites, _insert_links),
    TWO_FACETS_CONTRACT: Move(
        (Param("vertices", INPUT, EDGE), Param("triangle", DERIVED, TRIANGLE),
         Param("fresh", FRESH, LABEL)),
        lambda K, p: contract_two_facets(
            K, *p["vertices"], fresh=p.get("fresh")),
        lambda K: (((u, v), t) for u, v, t in _iter_contraction_pair_sites(K)),
        _two_facets_contract_links),
    CONNECTED_SUM: Move(
        _GLUING,
        lambda K, p: connected_sum_in(
            K, p["sigma1"], p["sigma2"], dict(p["psi"])),
        None, _sum_links),
    HANDLE_ADD: Move(
        _GLUING,
        lambda K, p: handle_addition(
            K, p["sigma1"], p["sigma2"], dict(p["psi"])),
        handle_sites, _sum_links),
    EDGE_FOLD: Move(
        _GLUING + (Param("edge", DERIVED, EDGE),),
        lambda K, p: edge_fold(K, p["sigma1"], p["sigma2"], dict(p["psi"])),
        lambda K: fold_sites(K), _fold_links),
    EDGE_UNFOLD: Move(
        (Param("tetra", INPUT, TETRA), Param("moebius_edge", DERIVED, EDGE),
         Param("split_pair", DERIVED, EDGE), Param("fresh", FRESH, EDGE)),
        lambda K, p: edge_unfold(K, p["tetra"], fresh=p.get("fresh")),
        _iter_unfold_sites, _unfold_links),
    FACET_SUBDIVIDE: Move(
        (Param("facet", INPUT, TETRA), Param("fresh", FRESH, LABEL)),
        lambda K, p: facet_subdivide(K, p["facet"], fresh=p.get("fresh")),
        lambda K: ((F,) for F in K.canonical_facets()), _pachner_links),
    FACET_UNSUBDIVIDE: Move(
        (Param("vertex", INPUT, LABEL), Param("facet", DERIVED, TETRA)),
        lambda K, p: facet_unsubdivide(K, p["vertex"]),
        _iter_unsubdividable_vertices, _pachner_links),
}

ALL_KINDS = tuple(MOVES)


def _has_shape(value, shape) -> bool:
    """Whether a record value has a schema shape: a label or a flag is an
    int (a bool is one), a cycle a tuple of three or more ints, and any
    other shape a tuple of values of its shapes."""
    if shape is int or shape is bool:
        return isinstance(value, int)
    if not isinstance(value, tuple):
        return False
    if shape == CYCLE:
        return len(value) >= 3 and all(isinstance(x, int) for x in value)
    return len(value) == len(shape) and all(map(_has_shape, value, shape))


def _fits(record) -> bool:
    """Whether ``record`` is a MoveRecord of a known kind that follows its
    schema: the (key, value) pairs in schema order, each value of its
    key's shape, and an integer g2 delta."""
    if not isinstance(record, MoveRecord) or record.kind not in ALL_KINDS:
        return False
    schema, params = MOVES[record.kind].params, record.params
    return (isinstance(params, tuple) and len(params) == len(schema)
            and isinstance(record.g2_delta, int)
            and all(isinstance(kv, tuple) and len(kv) == 2 and kv[0] == p.key
                    and _has_shape(kv[1], p.shape) for kv, p in zip(params, schema)))


def apply_record(
    K: SimplicialComplex, record: MoveRecord
) -> SimplicialComplex:
    """Re-execute a recorded move on ``K`` (or on a disconnected state
    holding several components, for the gluing kinds).

    All preconditions are re-checked, recorded fresh labels are forced,
    and the re-derived record must equal the given one, derived values
    and g2 delta included; any mismatch raises :class:`MoveError`.  The
    realized change of total g2 must equal the record's too.  Its f0,
    f1 and component count are read off the caches that the
    constructor's ``_successor`` patched, so the check costs what the
    move touched; the component count changes only as the step's own
    facets prove, never as the record says.
    """
    if not isinstance(K, SimplicialComplex) or not isinstance(record, MoveRecord):
        raise MoveError(f"apply_record wants a complex and a MoveRecord, got {K!r} and {record!r}")
    if not _fits(record):
        raise MoveError(f"not a {record.kind!r} record: {record!r}")
    K2, rec = MOVES[record.kind].construct(K, record.param_dict())
    if rec != record:
        raise MoveError(
            f"record {record} disagrees with the replayed move {rec}",
            details=(record, rec),
        )
    realized = total_g2(K2) - total_g2(K)
    if realized != rec.g2_delta:
        raise MoveError(
            f"move changed total g2 by {realized}, expected {rec.g2_delta}"
        )
    return K2


def singular_after(
    K: SimplicialComplex, K2: SimplicialComplex, record: MoveRecord
) -> dict:
    """The singular map of ``K2``, which the move ``record`` made from
    ``K``, stored on ``K2``.

    Call it only once the move's own check has passed, on a ``K`` that
    carries its map (``complexes._link_class``).  The kind's ``links``
    rule reads the map off ``K``, the record and that map; each rule's
    docstring argues why the check makes every component of ``K2``
    normal closed and what class each vertex keeps or gets.
    """
    singular = _singular_map(K)
    if singular is None:
        raise PseudoformError(f"singular_after wants a certified complex, got {K!r}")
    got = K2._cache["singular"] = MOVES[record.kind].links(K, record.param_dict(), singular)
    return got
