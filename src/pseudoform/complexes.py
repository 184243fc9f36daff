"""Pure simplicial complexes stored as sets of facets.

The only stored data is the set of maximal faces (facets); the face
lattice, f-vector, links and stars are derived on demand and memoised
per instance.  Complexes are immutable values: operations that "change"
a complex return a new one, so instances can be shared freely.  The
memo dictionaries are filled lazily; concurrent readers may at worst
recompute an entry, never see a wrong one.

The main objects of interest are 3-dimensional complexes in which every
triangle lies in exactly two facets and all links are connected (normal
pseudomanifolds).  Lower-dimensional complexes appear as links: the
link of a vertex is a 2-complex, the link of an edge a graph, and so
on.  ``validate_normal`` classifies every vertex link as a surface and
reports the vertices whose link is not a 2-sphere (singular vertices).
One classifier, ``_link_shapes``, reads a vertex link's counts, whether
it is a closed connected surface, and its class off the facet and
triangle indexes, without building the link; a ``Surface`` is built
only to word why a link is not a closed connected surface.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import (
    DimensionError,
    IsomorphismInconclusive,
    MalformedFacetError,
    MissingFaceError,
    PseudoformError,
)
from . import surfaces

Face = frozenset
"""A face is a frozenset of vertex labels."""


def _as_complex(K, caller: str) -> "SimplicialComplex":
    """``K``, which must be a :class:`SimplicialComplex`; otherwise a
    :class:`PseudoformError` naming ``caller``."""
    if not isinstance(K, SimplicialComplex):
        raise PseudoformError(f"{caller} wants a complex, got {K!r}")
    return K


def _not_a_face(face) -> MalformedFacetError:
    return MalformedFacetError(f"expected a face as an iterable of labels, got {face!r}")


def _as_face(face) -> frozenset:
    """``face`` as a frozenset; :class:`MalformedFacetError` if it is no
    iterable of hashable labels."""
    try:
        return frozenset(face)
    except TypeError:
        raise _not_a_face(face) from None


def clean_face(vertices: Iterable[int]) -> Face:
    """Validate and freeze one face given as an iterable of labels.

    Labels must be distinct non-negative integers; anything else raises
    :class:`MalformedFacetError`.
    """
    try:
        vs = tuple(vertices)
    except TypeError:
        raise _not_a_face(vertices) from None
    for v in vs:
        if not isinstance(v, int) or v < 0:
            raise MalformedFacetError(
                f"vertex labels must be non-negative integers, got {v!r}"
            )
    f = frozenset(vs)
    if len(f) != len(vs):
        raise MalformedFacetError(f"repeated vertex label in face {vs!r}")
    return f


@dataclass(frozen=True)
class FVector:
    """Face counts of a 3-complex plus the derived h- and g-numbers.

    ``h`` is the length-5 image of (1, f0, f1, f2, f3) under the usual
    binomial transform for dimension 3, ``g2 = h2 - h1`` and
    ``g3 = h3 - h2``.  In closed terms ``g2 = f1 - 4*f0 + 10``.
    """

    f0: int
    f1: int
    f2: int
    f3: int
    h: tuple
    g2: int
    g3: int

    @classmethod
    def from_counts(cls, f0: int, f1: int, f2: int, f3: int) -> "FVector":
        fm = (1, f0, f1, f2, f3)  # f_{-1} .. f_3
        h = tuple(
            sum((-1) ** (k - i) * comb(4 - i, k - i) * fm[i] for i in range(k + 1))
            for k in range(5)
        )
        return cls(f0, f1, f2, f3, h, h[2] - h[1], h[3] - h[2])

    def as_tuple(self) -> tuple:
        return (self.f0, self.f1, self.f2, self.f3)

    def __str__(self) -> str:
        body = ",".join(str(n) for n in self.as_tuple())
        return f"f=({body}) g2={self.g2} g3={self.g3}"


class SimplicialComplex:
    """An immutable pure simplicial complex, any dimension from 0 to 3.

    Parameters
    ----------
    facets:
        Iterable of faces (iterables of distinct non-negative integer
        labels).  All facets must have the same number of vertices;
        mixed sizes raise :class:`DimensionError`.  An empty iterable
        yields the empty complex (dimension -1), which occurs naturally
        as the link of a facet.
    """

    def __init__(self, facets: Iterable[Iterable[int]]):
        try:
            cleaned = frozenset(clean_face(f) for f in facets)
        except TypeError:
            raise MalformedFacetError(f"expected an iterable of facets, got {facets!r}") from None
        sizes = {len(f) for f in cleaned}
        if len(sizes) > 1:
            raise DimensionError(
                f"facets of mixed sizes {sorted(sizes)}: complexes here are pure"
            )
        self.facets: frozenset = cleaned
        self._faces_memo: dict = {}
        self._link_memo: dict = {}
        self._cache: dict = {}

    @classmethod
    def from_facets(cls, quadruples: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build a 3-dimensional complex from vertex-label quadruples.

        Every row must contain exactly four distinct labels.  This is
        the standard entry point for the objects this package studies.
        """
        try:
            rows = [clean_face(q) for q in quadruples]
        except TypeError:
            raise MalformedFacetError(f"expected an iterable of facets, got {quadruples!r}") from None
        for row in rows:
            if len(row) != 4:
                raise MalformedFacetError(
                    f"expected a quadruple of distinct labels, got {sorted(row)}"
                )
        return cls(rows)

    # -- basic identity ------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(dim={self.dimension}, "
            f"{len(self.vertices)} vertices, {len(self.facets)} facets)"
        )

    @property
    def dimension(self) -> int:
        """Dimension of the facets; -1 for the empty complex."""
        for f in self.facets:
            return len(f) - 1
        return -1

    @property
    def vertices(self) -> frozenset:
        vs = self._cache.get("vertices")
        if vs is None:
            vs = frozenset(v for f in self.facets for v in f)
            self._cache["vertices"] = vs
        return vs

    @property
    def max_label(self) -> int:
        """Largest vertex label in use; -1 for the empty complex."""
        m = self._cache.get("max_label")
        if m is None:
            m = max(self.vertices, default=-1)
            self._cache["max_label"] = m
        return m

    def fresh_label(self) -> int:
        """The deterministic fresh label: one past the largest in use."""
        return self.max_label + 1

    # -- face lattice --------------------------------------------------

    def faces(self, dim: int) -> frozenset:
        """All faces of the given dimension, as frozensets."""
        try:
            if dim < 0 or dim > self.dimension:
                return frozenset()
            got = self._faces_memo.get(dim)
            if got is None:
                if dim == self.dimension:
                    got = self.facets
                elif dim == 1:
                    got = frozenset(self._edge_counts())
                else:
                    got = frozenset(
                        frozenset(c)
                        for f in self.facets
                        for c in itertools.combinations(f, dim + 1)
                    )
                self._faces_memo[dim] = got
        except TypeError:
            raise DimensionError(f"faces wants an integer dimension, got {dim!r}") from None
        return got

    @property
    def edges(self) -> frozenset:
        return self.faces(1)

    @property
    def triangles(self) -> frozenset:
        return self.faces(2)

    def contains_face(self, face: Iterable[int]) -> bool:
        f = _as_face(face)
        if len(f) == 2:
            return f in self._edge_counts()
        return bool(self._cofacets(f))

    def _facets_by_vertex(self) -> dict:
        got = self._cache.get("facets_by_vertex")
        if got is None:
            got = {}
            for F in self.facets:
                for v in F:
                    got.setdefault(v, []).append(F)
            self._cache["facets_by_vertex"] = got
        return got

    def _edge_counts(self) -> dict:
        """Each edge with the number of facets containing it."""
        got = self._cache.get("edge_counts")
        if got is None:
            got = Counter(frozenset(e) for F in self.facets
                          for e in itertools.combinations(F, 2))
            self._cache["edge_counts"] = got
        return got

    def _successor(self, removed: Iterable[Face], added: Iterable[Face]) -> "SimplicialComplex":
        """The complex ``(self.facets - removed) | added``, built without
        ``clean_face`` by patching the caches of this complex.

        Trusted: the move constructors call it with ``added`` faces of
        this complex's size made of distinct non-negative integer labels.
        The facet-by-vertex index, the vertices, the per-edge facet counts
        and the largest label are copied and patched at the vertices of the
        facets that change; the counts and the label only when this complex
        holds them.  When more facets go than stay, the caches are left to
        be built afresh on demand instead.

        The component map is patched when this complex holds one and the
        step proves the outcome: some facet is added, the added facets are
        connected and meet a component, and every vertex of a removed facet
        that stays lies in an added facet.  Then any path through a removed facet can go
        through the added ones instead, so the components that the changed
        facets meet merge into one, with the new vertices, and every other
        component is kept.  Otherwise the map is rebuilt on demand.
        """
        added = frozenset(added)
        gone = (frozenset(removed) & self.facets) - added
        new = added - self.facets
        K2 = SimplicialComplex.__new__(SimplicialComplex)
        K2.facets = (self.facets - gone) | new
        K2._faces_memo, K2._link_memo, K2._cache = {}, {}, {}
        if len(gone) > len(K2.facets):
            return K2
        cache = K2._cache
        old_vs, new_vs = frozenset().union(*gone), frozenset().union(*new)
        by_vertex = dict(self._facets_by_vertex())
        for v in old_vs | new_vs:
            by_vertex[v] = [F for F in by_vertex.get(v, ()) if F not in gone]
        for F in new:
            for v in F:
                by_vertex[v].append(F)
        dead = {v for v in old_vs if not by_vertex[v]}
        for v in dead:
            del by_vertex[v]
        cache["facets_by_vertex"] = by_vertex
        cache["vertices"] = frozenset(by_vertex)

        counts = self._cache.get("edge_counts")
        if counts is not None:
            counts = counts.copy()
            for F in gone:
                for e in map(frozenset, itertools.combinations(F, 2)):
                    counts[e] -= 1
                    if not counts[e]:
                        del counts[e]
            for F in new:
                for e in map(frozenset, itertools.combinations(F, 2)):
                    counts[e] = counts.get(e, 0) + 1
            cache["edge_counts"] = counts

        top = self._cache.get("max_label")
        if top is not None and top in by_vertex:
            cache["max_label"] = max(top, max(new_vs, default=-1))

        comp = self._cache.get("components")
        if comp is None or not new or not (old_vs - dead) <= new_vs:
            return K2
        if surfaces._count_components(
                e for F in new for e in itertools.combinations(F, 2)) != 1:
            return K2
        hit = {comp[v] for v in new_vs if v in comp}
        hit.update(comp[next(iter(F))] for F in gone)
        if not hit:  # added facets that meet no component
            return K2
        members = self._component_members()
        keep = max(sorted(hit), key=lambda r: len(members[r]))
        merged = frozenset().union(*(members[r] for r in hit)).difference(dead) | new_vs
        comp, members = comp.copy(), members.copy()
        for r in hit - {keep}:
            for v in members.pop(r):
                comp[v] = keep
        for v in dead:
            del comp[v]
        for v in new_vs:
            comp[v] = keep
        members[keep] = merged
        cache["components"], cache["component_members"] = comp, members
        return K2

    # -- star / link ---------------------------------------------------

    def star(self, face: Iterable[int]) -> "SimplicialComplex":
        """Subcomplex generated by all facets containing ``face``."""
        f = _as_face(face)
        return SimplicialComplex(cell | f for cell in self._link_cells(f))

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Link of ``face``: a complex of dimension ``dim - |face|``.

        The link of a vertex in a 3-complex is a 2-complex, the link of
        an edge a graph, the link of a facet the empty complex.
        """
        f = _as_face(face)
        got = self._link_memo.get(f)
        if got is None:
            got = SimplicialComplex(c for c in self._link_cells(f) if c)
            self._link_memo[f] = got
        return got

    def _link_cells(self, f: frozenset) -> list:
        """The facets ``F - f`` of the link of ``f``; MissingFaceError if none."""
        cells = [F - f for F in self._cofacets(f)]
        if not cells:
            raise MissingFaceError(f"face {sorted(f)} is not in the complex")
        return cells

    def _cofacets(self, f: frozenset) -> list:
        if not f:
            return list(self.facets)
        by_vertex = self._facets_by_vertex()
        return [F for F in min([by_vertex.get(x, ()) for x in f], key=len) if f <= F]

    def edge_degree(self, edge: Iterable[int]) -> int:
        """Number of vertices in the link of the edge.

        Equals the number of facets around the edge whenever that link
        is a single cycle (the closed, normal case).
        """
        e = _as_face(edge)
        if len(e) != 2:
            raise DimensionError(f"edge_degree wants an edge, got {sorted(e)}")
        cof = self._cofacets(e)
        if not cof:
            raise MissingFaceError(f"edge {sorted(e)} is not in the complex")
        return len(frozenset().union(*cof) - e)

    # -- counting ------------------------------------------------------

    def f_vector(self) -> FVector:
        """f-vector with h- and g-numbers; 3-dimensional complexes only."""
        if self.dimension != 3:
            raise DimensionError(
                f"f_vector is defined for 3-complexes, this one has dimension {self.dimension}"
            )
        fv = self._cache.get("f_vector")
        if fv is None:
            fv = FVector.from_counts(
                len(self.faces(0)), len(self.faces(1)), len(self.faces(2)), len(self.facets)
            )
            self._cache["f_vector"] = fv
        return fv

    @property
    def g2(self) -> int:
        return self.f_vector().g2

    # -- the 1-skeleton as a graph ------------------------------------

    @property
    def adjacency(self) -> dict:
        adj = self._cache.get("adjacency")
        if adj is None:
            adj = {v: set() for v in self.vertices}
            for e in self._edge_counts():
                a, b = e
                adj[a].add(b)
                adj[b].add(a)
            adj = {v: frozenset(nb) for v, nb in adj.items()}
            self._cache["adjacency"] = adj
        return adj

    def neighbors(self, v: int) -> frozenset:
        try:
            return self.adjacency[v]
        except (KeyError, TypeError):
            raise MissingFaceError(f"vertex {v} is not in the complex") from None

    def _components(self) -> dict:
        """Vertex -> a label naming its 1-skeleton component.

        Built by a search over the 1-skeleton, the label is a vertex of
        the component; a map patched by ``_successor`` may keep the label
        of a vertex the step removed."""
        got = self._cache.get("components")
        if got is None:
            got = {}
            adj = self.adjacency
            for s in self.vertices:
                if s in got:
                    continue
                got[s] = s
                todo = [s]
                while todo:
                    for y in adj[todo.pop()]:
                        if y not in got:
                            got[y] = s
                            todo.append(y)
            self._cache["components"] = got
        return got

    def _component_members(self) -> dict:
        """The label of each component (see ``_components``) -> its vertices."""
        got = self._cache.get("component_members")
        if got is None:
            parts: dict = {}
            for v, r in self._components().items():
                parts.setdefault(r, []).append(v)
            got = {r: frozenset(vs) for r, vs in parts.items()}
            self._cache["component_members"] = got
        return got

    def is_connected(self) -> bool:
        return len(self._component_members()) <= 1

    def connected_components(self) -> list:
        """Components of the 1-skeleton, each as a complex.

        Facets are cliques, so every facet lies in exactly one
        component.
        """
        comp = self._components()
        parts: dict = {}
        for F in self.facets:
            parts.setdefault(comp[next(iter(F))], []).append(F)
        comps = map(SimplicialComplex, parts.values())
        return sorted(comps, key=lambda K: min(K.vertices))

    # -- missing faces -------------------------------------------------

    def missing_faces(self, dim: int) -> list:
        """Faces absent from the complex whose boundary is present.

        ``dim=2`` lists missing triangles (empty triangles in the
        1-skeleton), ``dim=3`` missing tetrahedra: quadruples all of
        whose four triangles are present while the solid quadruple is
        not a face.  Results are sorted for determinism.
        """
        if dim == 2:
            adj = self.adjacency
            out = []
            for e in self.faces(1):
                a, b = sorted(e)
                for c in sorted(adj[a] & adj[b]):
                    if c > b and not self.contains_face((a, b, c)):
                        out.append(frozenset((a, b, c)))
            return sorted(out, key=sorted)
        if dim == 3:
            tris = self.faces(2)
            adj = self.adjacency
            out = set()
            for t in tris:
                a, b, c = sorted(t)
                for d in sorted(adj[a] & adj[b] & adj[c]):
                    if d <= c:
                        continue
                    quad = frozenset((a, b, c, d))
                    if quad in self.facets:
                        continue
                    if all(quad - {x} in tris for x in (a, b, c)):
                        out.add(quad)
            return sorted(out, key=sorted)
        raise DimensionError(f"missing_faces supports dim 2 or 3, got {dim}")

    # -- relabeling and display ---------------------------------------

    def relabeled(self, mapping: dict) -> "SimplicialComplex":
        """Apply a vertex relabeling; labels not in ``mapping`` stay put."""
        try:
            get = mapping.get
        except AttributeError:
            raise MalformedFacetError(f"relabeled wants a dict of labels, got {mapping!r}") from None
        return SimplicialComplex([get(v, v) for v in F] for F in self.facets)

    def canonical_facets(self) -> list:
        """Facets as sorted tuples, sorted; the canonical printed order."""
        return sorted(tuple(sorted(F)) for F in self.facets)


# ---------------------------------------------------------------------
# normality
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of ``validate_normal``.

    ``verdict`` is ``"NormalClosed"`` when the complex is a connected
    closed normal 3-pseudomanifold, else ``"NotNormal"``.
    ``singular_vertices`` lists ``(vertex, SurfaceClass)`` pairs for the
    vertices whose link is a closed surface other than the 2-sphere.
    """

    verdict: str
    is_connected: bool
    ridge_failures: tuple
    disconnected_links: tuple
    bad_links: tuple
    singular_vertices: tuple

    @property
    def is_normal_closed(self) -> bool:
        return self.verdict == "NormalClosed"

    def summary(self) -> str:
        if self.is_normal_closed:
            if self.singular_vertices:
                names = ", ".join(
                    f"{v}:{cls.kind}" for v, cls in self.singular_vertices
                )
                return f"NormalClosed with singular vertices [{names}]"
            return "NormalClosed, all vertex links are 2-spheres"
        parts = []
        if not self.is_connected:
            parts.append("disconnected")
        if self.ridge_failures:
            parts.append(f"{len(self.ridge_failures)} ridge failures")
        if self.disconnected_links:
            parts.append(f"{len(self.disconnected_links)} disconnected links")
        if self.bad_links:
            parts.append(f"{len(self.bad_links)} non-surface links")
        return "NotNormal: " + ("; ".join(parts) if parts else "see report")


_VertexLink = namedtuple("_VertexLink", "edges cycles holes")


def _closure(cells) -> set:
    """The nonempty faces of the given cells, as sorted tuples."""
    return {f for c in map(sorted, cells) for r in range(1, len(c) + 1)
            for f in itertools.combinations(c, r)}


def _vertex_link(K: SimplicialComplex, v: int) -> _VertexLink:
    """The link of ``v`` read off its triangles ``F - {v}``, one per facet
    ``F`` at ``v``, memoised per complex: its edges and its 3-cycles
    (triples of pairwise joined vertices), as sorted tuples, the 3-cycles
    sorted, and its missing triangles (the 3-cycles that span no link
    triangle, as frozensets).  No face closure is built."""
    memo = K._cache.setdefault("vertex_links", {})
    got = memo.get(v)
    if got is None:
        cells = K._link_cells(frozenset((v,)))
        edges = {e for c in map(sorted, cells) for e in itertools.combinations(c, 2)}
        up: dict = {}  # each link vertex to its larger link neighbours
        for a, b in edges:
            up.setdefault(a, set()).add(b)
        cycles = tuple((a, b, c) for a in sorted(up) for b in sorted(up[a])
                       for c in sorted(up[a] & up.get(b, set())))
        spanned = set(cells)  # the link triangles of a 3-complex
        holes = [h for h in map(frozenset, cycles) if h not in spanned]
        got = memo[v] = _VertexLink(edges, cycles, holes)
    return got


def _link_connected(K: SimplicialComplex, f: frozenset) -> bool:
    """Whether the link of ``f``, a vertex or an edge of a 3-complex, is
    connected, read off its cofacets."""
    edges = (e for F in K._cofacets(f) for e in itertools.combinations(F - f, 2))
    return surfaces._count_components(edges) <= 1


def _edge_circle(K: SimplicialComplex, e: frozenset) -> Optional[dict]:
    """Each vertex of the link of the edge ``e`` -> its position along
    that link, or None when the link is not a single circle.  Read off
    the cofacets of ``e`` and memoised per complex."""
    memo = K._cache.setdefault("edge_circles", {})
    if e not in memo:
        cells = [F - e for F in K._cofacets(e)]
        nbrs: dict = {}
        if all(len(c) == 2 for c in cells):
            for a, b in cells:
                nbrs.setdefault(a, []).append(b)
                nbrs.setdefault(b, []).append(a)
        pos: dict = {}
        if nbrs and all(len(nb) == 2 for nb in nbrs.values()):
            x = last = next(iter(nbrs))
            while x not in pos:  # walk once around from x
                pos[x] = len(pos)
                a, b = nbrs[x]
                x, last = (b if a == last else a), x
        memo[e] = pos if nbrs and len(pos) == len(nbrs) else None
    return memo[e]


def _ridge_index(K: SimplicialComplex) -> dict:
    """Each triangle of ``K``, a 3-complex, -> the facets containing it,
    memoised per complex."""
    got = K._cache.get("ridges")
    if got is None:
        got = {}
        for F in K.facets:
            for x in F:
                got.setdefault(F - {x}, []).append(F)
        K._cache["ridges"] = got
    return got


def _link_shapes(K: SimplicialComplex) -> dict:
    """Each vertex of ``K``, a 3-complex, -> ``(V, E, T, cls)``: the
    numbers of vertices, edges and triangles of its link, and the link's
    class, or None when the link is not a closed connected surface.  Read off
    the facet and triangle indexes and memoised per complex; no link is
    built.

    The link's vertices are the neighbours of ``v``, its edges the
    triangles at ``v`` and its triangles the facets at ``v``.  A link
    edge lies in as many link triangles as its triangle lies in facets,
    and two link triangles meet at a link edge when their facets meet at
    its triangle.  So the link is a closed connected surface when every
    triangle at ``v`` lies in two facets and the facets at ``v`` are
    connected across them; ``surfaces._closed_class`` then classes it
    from chi = V - E + T, sweeping its triangles for orientability only
    when chi is not 2."""
    got = K._cache.get("link_shapes")
    if got is None:
        around: dict = {}  # each vertex -> the facets of each triangle at it
        irregular = set()  # the vertices of triangles in other than two facets
        for t, pair in _ridge_index(K).items():
            if len(pair) != 2:
                irregular.update(t)
            for x in t:
                around.setdefault(x, []).append(pair)
        by_vertex, adj, got = K._facets_by_vertex(), K.adjacency, {}
        for v, pairs in around.items():
            at_v, n = by_vertex[v], len(adj[v])
            cls = None
            if v not in irregular and surfaces._count_components(pairs) == 1:
                cls = surfaces._closed_class(n - len(pairs) + len(at_v), (F - {v} for F in at_v))
            got[v] = (n, len(pairs), len(at_v), cls)
        K._cache["link_shapes"] = got
    return got


def _vertex_link_class(K: SimplicialComplex, v: int) -> surfaces.SurfaceClass:
    """Classification of the link of ``v`` (``_link_shapes``); raises
    :class:`PseudoformError` when it is not a closed connected surface,
    worded by the link's :class:`Surface`, which is built only then."""
    shape = _link_shapes(K).get(v) if K.dimension == 3 else None
    if shape is not None and shape[3] is not None:
        return shape[3]
    at_v = K._facets_by_vertex().get(v, ())
    return surfaces.Surface(frozenset(F - {v} for F in at_v if len(F) > 1)).classify()


def _singular_map(K: SimplicialComplex) -> Optional[dict]:
    """The certified map in ``K._cache["singular"]``, each singular vertex
    -> its link class, which a trusted step stores once it has proved every
    component of ``K`` normal closed; None when ``K`` carries none."""
    return K._cache.get("singular")


def _link_class(K: SimplicialComplex, v: int) -> surfaces.SurfaceClass:
    """The class of the link of ``v`` as the certified map gives it
    (``_singular_map``), with a sphere for a vertex it leaves out.
    Without the map, or for a label not in ``K``: ``_vertex_link_class``."""
    singular = _singular_map(K)
    if singular is None or v not in K.vertices:
        return _vertex_link_class(K, v)
    return singular.get(v, surfaces.SPHERE_CLASS)


def validate_normal(K: SimplicialComplex) -> NormalityReport:
    """Check the closed normal pseudomanifold conditions in dimension 3.

    Purity holds by construction.  Conditions checked, in order: every
    triangle in exactly two facets, global connectivity, connected
    links for all faces of codimension at least two, and every vertex
    link a closed connected surface.
    Vertex links are classified; non-sphere links populate
    ``singular_vertices``.
    """
    return _normality(_as_complex(K, "validate_normal"))


def _normality(K: SimplicialComplex) -> NormalityReport:
    """``validate_normal`` of ``K``, which is a complex."""
    if K.dimension != 3:
        raise DimensionError(
            f"validate_normal expects a 3-complex, got dimension {K.dimension}"
        )

    ridge_failures = sorted((tuple(sorted(t)), len(pair))
                            for t, pair in _ridge_index(K).items() if len(pair) != 2)
    is_connected = K.is_connected()

    bad_links = []
    singular = []
    for v in sorted(K.vertices):
        try:
            cls = _vertex_link_class(K, v)
        except PseudoformError as exc:  # report, do not raise
            bad_links.append((v, str(exc)))
            continue
        if cls.kind != surfaces.SPHERE:
            singular.append((v, cls))

    # A vertex whose link is a closed connected surface has a connected
    # link.  When that surface is a sphere or a projective plane it has
    # no pinch: unpinching raises chi, and chi is at most 2 on a closed
    # connected surface, 1 when it is non-orientable.  So the link of
    # every edge at such a vertex is a circle.  Only the other faces are
    # tested.
    loose = {v for v, _ in bad_links}
    loose.update(v for v, cls in singular if cls.kind != surfaces.RP2)
    edges = sorted((v, w) for v in loose for w in K.adjacency[v] & loose if v < w)
    disconnected_links = [
        f for f in [(v,) for v, _ in bad_links] + edges
        if not _link_connected(K, frozenset(f))
    ]

    ok = (
        is_connected
        and not ridge_failures
        and not disconnected_links
        and not bad_links
    )
    return NormalityReport(
        verdict="NormalClosed" if ok else "NotNormal",
        is_connected=is_connected,
        ridge_failures=tuple(ridge_failures),
        disconnected_links=tuple(disconnected_links),
        bad_links=tuple(bad_links),
        singular_vertices=tuple(singular),
    )


def singular_vertices(K: SimplicialComplex) -> list:
    """Vertices whose link is not a 2-sphere, as a sorted label list."""
    return [v for v, _ in validate_normal(K).singular_vertices]


def total_g2(K: SimplicialComplex) -> int:
    """Sum of g2 over the connected components.

    For a connected complex this is plain ``g2``.  Summing per
    component keeps the book-keeping additive across disjoint unions,
    which is how construction traces account for connected sums.
    Each component adds ``f1 - 4*f0 + 10``, so the sum is
    ``f1 - 4*f0 + 10*c`` with ``c`` the number of components, all three
    read off the caches that ``_successor`` patches.
    """
    if _as_complex(K, "total_g2").facets and K.dimension != 3:
        raise DimensionError(
            "total_g2 is defined for 3-complexes, this one has "
            f"dimension {K.dimension}"
        )
    return len(K._edge_counts()) - 4 * len(K.vertices) + 10 * len(K._component_members())


# ---------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------


def _face_counts(K: SimplicialComplex) -> tuple:
    """The number of faces of each dimension, facets first; for a
    3-complex read off the ridge and edge indexes."""
    if K.dimension == 3:
        return (len(K.facets), len(_ridge_index(K)), len(K._edge_counts()), len(K.vertices))
    return tuple(len(K.faces(d)) for d in range(K.dimension, -1, -1))


def _floodable(K: SimplicialComplex) -> bool:
    """Whether ``K`` is a 3-complex in which every triangle lies in exactly
    two facets and the facets are connected across triangles.  Then the
    image of one facet fixes an isomorphism (``_flood``)."""
    if K.dimension != 3:
        return False
    pairs = _ridge_index(K).values()
    return all(len(p) == 2 for p in pairs) and surfaces._count_components(pairs) == 1


def _vertex_keys(K: SimplicialComplex) -> dict:
    """Refined per-vertex invariants used to prune the search: the
    number of faces of each dimension in the link and, for a 3-complex,
    the link's class, or "?" when it is no closed connected surface,
    all read off the indexes (``_link_shapes``)."""
    by_vertex, adj, d = K._facets_by_vertex(), K.adjacency, K.dimension
    shapes = _link_shapes(K) if d == 3 else {}
    base = {}
    for v, at_v in by_vertex.items():
        n = len(adj[v])
        if d != 3:  # the link's vertices, and in dimension 2 its edges
            base[v] = (n, (n, len(at_v))[:max(d, 1)], "")
            continue
        _, e, t, cls = shapes[v]
        base[v] = (n, (n, e, t), "?" if cls is None else cls.kind)
    # one refinement round: append the multiset of neighbour base keys
    return {v: (base[v], tuple(sorted(base[u] for u in adj[v]))) for v in base}


def _flood(F: frozenset, mapping: dict, ridges1: dict, ridges2: dict,
           facets2: frozenset) -> Optional[dict]:
    """The isomorphism extending ``mapping``, which maps every vertex of
    the facet ``F``, or None when there is none.

    Both complexes are ``_floodable``, with as many vertices and facets.
    Once a facet's image is fixed, so is the image of its neighbour
    across each of its triangles: the other facet at the image triangle,
    with the opposite vertices matched.  Propagating across triangles
    reaches every facet, so it gives the one candidate map, which must
    agree with ``mapping``.  A consistent map sends each facet onto a
    facet and neighbours onto neighbours, so it reaches every facet of
    the second complex too: it is onto, hence a bijection, and an
    isomorphism."""
    G = frozenset(map(mapping.get, F))
    if G not in facets2:
        return None
    phi = dict(mapping)
    seen, todo = {F}, [(F, G)]
    while todo:
        F, G = todo.pop()
        for x in F:
            t, s = F - {x}, G - {phi[x]}
            a, b = ridges1[t]
            F2 = b if a == F else a
            a, b = ridges2[s]
            G2 = b if a == G else a
            (y,), (z,) = F2 - t, G2 - s
            if phi.setdefault(y, z) != z:
                return None
            if F2 not in seen:
                seen.add(F2)
                todo.append((F2, G2))
    return phi


def find_isomorphism(
    K1: SimplicialComplex,
    K2: SimplicialComplex,
    node_budget: int = 500_000,
) -> Optional[dict]:
    """Search for a facet-preserving vertex bijection K1 -> K2.

    Returns the bijection as a dict, or None when the complexes are not
    isomorphic.  The search is refinement-pruned backtracking over the
    vertices, rarest invariant class first, each trying the unused
    vertices of its class in label order; the first complete map it
    meets is the least one in that order.

    When both complexes are 3-complexes in which every triangle lies in
    exactly two facets and the facets are connected across triangles
    (connected closed pseudomanifolds), the image of one facet fixes the
    whole map.  So a branch that first maps a whole facet onto a facet
    is resolved at once by propagating across triangles: it gives the
    branch's only completion, or none.  On such inputs the search is
    exact; ``node_budget`` bounds the candidate images tried before a
    branch is resolved, and propagating costs no nodes.  Other inputs
    are searched to the end, and ``node_budget`` bounds all the
    candidates tried.  Past the budget the search raises
    :class:`IsomorphismInconclusive` instead of guessing.  A candidate
    whose adjacency disagrees with the images already chosen is counted
    as tried without being visited, so the cost follows the consistent
    candidates.
    """
    if not isinstance(node_budget, int) or isinstance(node_budget, bool):
        raise PseudoformError(f"node_budget must be an integer, got {node_budget!r}")
    _as_complex(K1, "find_isomorphism")
    _as_complex(K2, "find_isomorphism")
    if K1.dimension != K2.dimension or _face_counts(K1) != _face_counts(K2):
        return None
    flood = _floodable(K1)
    if flood != _floodable(K2):  # ridge degrees and facet connectivity are invariants
        return None

    keys1, keys2 = _vertex_keys(K1), _vertex_keys(K2)
    if sorted(keys1.values()) != sorted(keys2.values()):
        return None

    classes2: dict = {}
    for v in sorted(keys2):
        classes2.setdefault(keys2[v], []).append(v)

    # rarest invariant class first, then ties by label for determinism
    order = sorted(K1.vertices, key=lambda v: (len(classes2[keys1[v]]), v))
    by_vertex1 = K1._facets_by_vertex()
    adj1, adj2 = K1.adjacency, K2.adjacency
    if flood:
        ridges1, ridges2 = _ridge_index(K1), _ridge_index(K2)

    if not order:
        return {}
    mapping: dict = {}
    used: set = set()

    def candidates(v):
        """``(tried, w)`` for each unused image ``w`` of ``v`` adjacent to exactly
        the images of the mapped neighbours of ``v``, with ``tried`` the unused
        candidates up to ``w``; then ``(tried, None)`` for the rest."""
        free = [w for w in classes2[keys1[v]] if w not in used]
        near = {mapping[u] for u in adj1[v] if u in mapping}
        last = -1
        for w in sorted(set(free).intersection(*map(adj2.get, near))):
            if adj2[w] & used == near:
                i = free.index(w, last + 1)
                yield i - last, w
                last = i
        yield len(free) - 1 - last, None

    # Depth-first over ``order`` with an explicit stack: ``stack[i]``
    # yields the candidates for ``order[i]`` not yet tried, and
    # ``mapping`` holds the images chosen for the vertices above.
    nodes = 0
    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if v in mapping:  # back from a dead end below: drop v's image
            used.discard(mapping.pop(v))
        for tried, w in stack[-1]:
            nodes += tried
            if nodes > node_budget:
                raise IsomorphismInconclusive(
                    f"isomorphism search budget of {node_budget} nodes exhausted"
                )
            if w is None:
                break
            mapping[v] = w
            used.add(w)
            # the facets at v that are now fully mapped must land on facets
            full = [F for F in by_vertex1[v] if mapping.keys() >= F]
            if flood and full:  # the first whole facet of this branch
                done = _flood(full[0], mapping, ridges1, ridges2, K2.facets)
                if done is not None:
                    return done
            elif all(frozenset(map(mapping.get, F)) in K2.facets for F in full):
                break  # descend to the next vertex
            del mapping[v]
            used.discard(w)
        if v not in mapping:
            stack.pop()
            continue
        if len(stack) == len(order):
            return dict(mapping)
        stack.append(candidates(order[len(stack)]))
    return None


def are_isomorphic(
    K1: SimplicialComplex, K2: SimplicialComplex, node_budget: int = 500_000
) -> bool:
    """True when a facet-preserving vertex bijection exists: the answer
    of :func:`find_isomorphism`, with its exactness and its budget."""
    return find_isomorphism(K1, K2, node_budget=node_budget) is not None
