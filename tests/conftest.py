import collections
import dataclasses
import itertools
import pathlib
import random
from typing import Optional

import pytest
from hypothesis import settings

from pseudoform import generators as gen, io as pio, moves, reducer, surfaces
from pseudoform.complexes import (SimplicialComplex, _link_connected, _vertex_link_class,
                                  validate_normal)
from pseudoform.errors import PseudoformError

# Property tests draw the same examples on every run, at a bounded cost
# and with no per-example deadline.
settings.register_profile(
    "pseudoform", derandomize=True, deadline=None, max_examples=50
)
settings.load_profile("pseudoform")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

COMPLEX_FIXTURES = (
    "boundary4simplex",
    "stacked_sphere_8",
    "cross_polytope",
    "chain5",
    "chain9",
    "foldable_sphere",
    "folded_g2_3",
    "folded_g2_4",
    "double_fold_g2_6",
)


# The full recheck that the links rules replace, kept as the reference
# that every step gate compares the rules' maps with.

def normal_update(
    K: SimplicialComplex, K2: SimplicialComplex, singular: dict
) -> Optional[dict]:
    """The singular vertices of ``K2``, found by rechecking only what
    differs from ``K``.

    ``K`` must be a 3-complex whose components are all normal closed,
    and ``singular`` maps its singular vertices to their link classes.
    Returns that map for the 3-complex ``K2``, or None when some
    component of ``K2`` is not normal closed.

    Normality is local: a face that lies in none of the facets of
    ``K.facets ^ K2.facets`` has the same cofacets in both complexes.
    So only the faces of those facets that ``K2`` still has are
    rechecked; they lie on the vertices of ``K2`` whose stars changed.
    Each such triangle must lie in 0 or 2 facets of ``K2``, each edge
    must have a connected link, and each vertex a closed connected
    surface as its link, which is classified anew.  Every other vertex
    of ``K2`` keeps its entry.  So a split half rechecks the star of the
    filled-in tetrahedron, not the other half it lost.  A component is
    connected by definition, so the verdict is that of
    :func:`validate_normal` on every component of ``K2``, which stays
    the full check.
    """
    if not (isinstance(K, SimplicialComplex) and isinstance(K2, SimplicialComplex)):
        raise PseudoformError(f"normal_update wants two complexes, got {K!r} and {K2!r}")
    removed, added = K.facets - K2.facets, K2.facets - K.facets
    stars = K2.vertices & frozenset().union(*removed, *added)
    at = K._facets_by_vertex()
    changed = added | {F for v in stars for F in at.get(v, ()) if F in removed}

    def touched(size):
        return {frozenset(c) for F in changed for c in itertools.combinations(F & stars, size)}

    if any(len(K2._cofacets(t)) not in (0, 2) for t in touched(3)):
        return None
    if not all(_link_connected(K2, e) for e in touched(2)):
        return None
    out = {v: cls for v, cls in singular.items() if v in K2.vertices}
    for v in stars:
        out.pop(v, None)
        try:
            cls = _vertex_link_class(K2, v)
        except PseudoformError:
            return None
        if cls.kind != surfaces.SPHERE:
            out[v] = cls
    return out


# The benchmark's walk corpus: RandomMoves at budget 20, sphere walks by
# seed (g2 cap 9) and fold walks by seed (g2 cap 4).
SPHERE_WALK_SEEDS = range(100, 200)
FOLD_WALK_SEEDS = range(16)


def walk_spec(seed: int, fold: bool) -> "gen.GeneratorSpec":
    return gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", 20), ("allow_fold", fold),
        ("g2_cap", 4 if fold else 9),
    ))


def folded_spine(n: int):
    """``spine_path_sphere(n)`` folded at its first admissible fold."""
    S = gen.spine_path_sphere(n)
    s1, s2, psi = gen.find_admissible_fold(S)
    return moves.edge_fold(S, s1, s2, dict(psi))[0]


def fold_rung(n: int):
    """The fold ladder's rung: ``spine_path_sphere(n)`` folded at the
    middle of its admissible folds."""
    S = gen.spine_path_sphere(n)
    folds = gen.admissible_folds(S)
    s1, s2, psi = folds[len(folds) // 2]
    return moves.edge_fold(S, s1, s2, dict(psi))[0]


def shuffled(K, seed: int):
    """``K`` with its labels permuted by a seeded shuffle."""
    labels = sorted(K.vertices)
    image = labels[:]
    random.Random(seed).shuffle(image)
    return K.relabeled(dict(zip(labels, image)))


# The reference for the isomorphism search's resolution step: every
# isomorphism, found by sending one anchor facet everywhere.

def _triangle_facets(K) -> dict:
    """Each triangle of the 3-complex ``K`` -> the facets containing it."""
    out: dict = {}
    for F in K.facets:
        for t in itertools.combinations(sorted(F), 3):
            out.setdefault(frozenset(t), []).append(F)
    return out


def flood_ready(K) -> bool:
    """Whether ``K`` is a 3-complex whose triangles each lie in two facets
    and whose facets are connected across triangles."""
    if K.dimension != 3:
        return False
    tris = _triangle_facets(K)
    if any(len(fs) != 2 for fs in tris.values()):
        return False
    nbrs: dict = {F: [] for F in K.facets}
    for a, b in tris.values():
        nbrs[a].append(b)
        nbrs[b].append(a)
    start = min(K.facets, key=sorted)
    seen, todo = {start}, [start]
    while todo:
        for G in nbrs[todo.pop()]:
            if G not in seen:
                seen.add(G)
                todo.append(G)
    return len(seen) == len(K.facets)


def all_isomorphisms(K1, K2) -> list:
    """Every isomorphism ``K1 -> K2`` of two ``flood_ready`` complexes.

    The least facet of ``K1`` goes to each facet of ``K2`` in each of its
    24 vertex orders; a breadth-first sweep across triangles extends
    that to a map, which is kept when it sends the facets of ``K1``
    bijectively onto those of ``K2``."""
    tris1, tris2 = _triangle_facets(K1), _triangle_facets(K2)
    anchor = min(K1.facets, key=sorted)
    found = []
    for G in sorted(K2.facets, key=sorted):
        for image in itertools.permutations(sorted(G)):
            phi = dict(zip(sorted(anchor), image))
            queue, done = collections.deque([anchor]), {anchor}
            while queue and phi is not None:
                F = queue.popleft()
                image_F = frozenset(phi[x] for x in F)
                for t in map(frozenset, itertools.combinations(sorted(F), 3)):
                    t2 = frozenset(phi[x] for x in t)
                    other1 = [H for H in tris1[t] if H != F]
                    other2 = [H for H in tris2.get(t2, ()) if H != image_F]
                    if len(other2) != 1:
                        phi = None
                        break
                    (y,), (z,) = other1[0] - t, other2[0] - t2
                    if phi.setdefault(y, z) != z:
                        phi = None
                        break
                    if other1[0] not in done:
                        done.add(other1[0])
                        queue.append(other1[0])
            if (phi is not None and len(set(phi.values())) == len(phi) == len(K2.vertices)
                    and {frozenset(phi[x] for x in F) for F in K1.facets} == K2.facets):
                found.append(phi)
    return found


def extension(isos, mapping: dict) -> Optional[dict]:
    """The member of ``isos`` that agrees with ``mapping``, or None."""
    for phi in isos:
        if all(phi[x] == y for x, y in mapping.items()):
            return phi
    return None


def walk_states(g):
    """Every state of a generated walk, from its seeds on."""
    state = SimplicialComplex(F for s in g.trace.seeds for F in s.facets)
    states = [state]
    for _tag, rec in g.trace.forward_moves:
        state = moves.apply_record(state, rec)
        states.append(state)
    assert state == g.complex
    return states


def rp2_second_summand():
    """A boundary 4-simplex glued, as the first summand, onto the folded
    ``spine_path_sphere(6)`` at a facet of its projective-plane vertex 0,
    and a trace that builds it: the folded sphere's reduction trace with
    the simplex as one more seed and the sum as the last move.  Each
    glued vertex of the simplex whose image has an RP^2 link gets it."""
    F = folded_spine(6)
    trace = reducer.reduce_complex(F).trace
    base = 1 + max(v for seed in trace.seeds for v in seed.vertices)
    S = gen.boundary_simplex(base)
    sigma2 = next(G for G in F.canonical_facets() if 0 in G)
    sigma1 = tuple(range(base, base + 4))
    K, rec = moves.connected_sum(S, sigma1, F, sigma2, dict(zip(sigma1, sigma2)))
    seeds = trace.seeds + (S,)
    return K, reducer._trace(K, seeds, trace.forward_moves + ((1, rec),))


def rp2_sum(S, at: int):
    """``fold_rung(8)``, its labels shifted past those of ``S``, glued by
    a connected sum, at a facet of its first projective-plane vertex,
    onto the facet ``at`` of ``S``'s canonical facets.  Its two RP^2
    vertices keep labels above all of ``S``'s, so the handles of the sum
    whose sigma2 holds one of them have an RP^2 target; glued onto the
    middle facet of a spine sphere, the sum has folds whose free corner
    is an RP^2 vertex."""
    F = fold_rung(8)
    shift = S.fresh_label()
    F = F.relabeled({v: v + shift for v in F.vertices})
    sigma1 = next(G for G in F.canonical_facets() if shift in G)
    sigma2 = S.canonical_facets()[at]
    return moves.connected_sum(F, sigma1, S, sigma2, dict(zip(sigma1, sigma2)))[0]


def rp2_handle():
    """``rp2_sum(staircase_sphere(8), 0)`` with a handle added at its
    first site with an RP^2 target, and a trace that builds it: the
    sum's reduction trace with the handle as the last move."""
    K = rp2_sum(gen.staircase_sphere(8), 0)
    trace = reducer.reduce_complex(K).trace
    singular = {v for v, _ in validate_normal(K).singular_vertices}
    s1, s2, psi = next(h for h in moves.handle_sites(K) if singular & set(h[1]))
    H, handle = moves.handle_addition(K, s1, s2, dict(psi))
    return H, reducer._trace(H, trace.seeds, trace.forward_moves + ((0, handle),))


def rp2_handle_and_unfold():
    """``rp2_handle``'s complex unfolded at its first unfold site, and
    its trace with the unfold as one more move."""
    H, trace = rp2_handle()
    U, unfold = moves.edge_unfold(H, moves.detect_unfold(H).tetra)
    return U, reducer._trace(U, trace.seeds, trace.forward_moves + ((0, unfold),))


# Mutants of the rules that carry singular maps through a connected sum
# and a split; each patches one rule in with ``monkeypatch``.  On the
# complex and trace of ``rp2_second_summand`` the gates must fail them.

def _rules(monkeypatch, kinds, links):
    """Give each kind of ``kinds`` the links rule ``links``."""
    for kind in kinds:
        monkeypatch.setitem(moves.MOVES, kind, dataclasses.replace(moves.MOVES[kind], links=links))


def sum_keeps_only_the_first_class(monkeypatch):
    """Each glued vertex keeps its own class, not the sum of both."""
    def links(K, p, singular):
        targets = dict(p["psi"]).values()
        return {v: cls for v, cls in singular.items() if v not in targets}
    _rules(monkeypatch, (moves.CONNECTED_SUM,), links)


def sum_keeps_the_targets(monkeypatch):
    """The glued-away targets of psi stay in the map."""
    rule = moves.MOVES[moves.CONNECTED_SUM].links

    def links(K, p, singular):
        out = rule(K, p, singular)
        out.update((w, singular[w]) for w in dict(p["psi"]).values() if w in singular)
        return out
    _rules(monkeypatch, (moves.CONNECTED_SUM,), links)


def split_swaps_the_rp2_side(monkeypatch):
    """An RP^2 corner keeps its class in the half that gets the sphere."""
    split_singular = reducer._split_singular

    def swapped(K, K1, K2, rec):
        split_singular(K, K1, K2, rec)
        m1, m2 = K1._cache["singular"], K2._cache["singular"]
        for x, w in rec.get("psi"):
            if x in m1:
                m2[w] = m1.pop(x)
            elif w in m2:
                m1[x] = m2.pop(w)
    monkeypatch.setattr(reducer, "_split_singular", swapped)


LINKS_MUTANTS = (sum_keeps_only_the_first_class, sum_keeps_the_targets,
                 split_swaps_the_rp2_side)


# Mutants of the rules of the other kinds.  The replay of fold walk 2
# at budget 40 (``long_fold_walk(2)``) reaches each with a wrong map.

def pachner_drops_an_rp2_class(monkeypatch):
    """A bistellar move or a facet (un)subdivision drops one RP^2 vertex
    from the map."""
    def links(K, p, singular):
        rp2 = [v for v, cls in singular.items() if cls.kind == surfaces.RP2]
        return {v: cls for v, cls in singular.items() if v not in rp2[:1]}
    _rules(monkeypatch, (moves.BISTELLAR1, moves.BISTELLAR2, moves.FACET_SUBDIVIDE,
                         moves.FACET_UNSUBDIVIDE), links)


def contraction_keeps_one_class(monkeypatch):
    """The merged vertex of an edge contraction gets the class of the
    second endpoint, not the sum of both."""
    def links(K, p, singular):
        u, v = p["edge"]
        out = {x: cls for x, cls in singular.items() if x not in (u, v)}
        if v in singular:
            out[p["fresh"]] = singular[v]
        return out
    _rules(monkeypatch, (moves.EDGE_CONTRACT,), links)


def fold_keeps_endpoint_spheres(monkeypatch):
    """An edge fold merges its free corners but keeps the classes of the
    endpoints of its edge, spheres included."""
    def links(K, p, singular):
        out = dict(singular)
        for y, w in p["psi"]:
            if y != w:
                out = moves._merged(out, (y, w), y)
        return out
    _rules(monkeypatch, (moves.EDGE_FOLD,), links)


def handle_keeps_the_targets(monkeypatch):
    """A handle addition leaves the glued-away targets of psi in the map."""
    rule = moves.MOVES[moves.HANDLE_ADD].links

    def links(K, p, singular):
        out = rule(K, p, singular)
        out.update((w, singular[w]) for _, w in p["psi"] if w in singular)
        return out
    _rules(monkeypatch, (moves.HANDLE_ADD,), links)


def unfold_keeps_a_moebius_corner(monkeypatch):
    """An edge unfold leaves its first Moebius corner as RP^2."""
    rule = moves.MOVES[moves.EDGE_UNFOLD].links

    def links(K, p, singular):
        u = p["moebius_edge"][0]
        return {**rule(K, p, singular), u: singular[u]}
    _rules(monkeypatch, (moves.EDGE_UNFOLD,), links)


def expansion_swaps_the_apex_sides(monkeypatch):
    """An edge expansion at a singular vertex gives each apex the class
    of the other apex's side."""
    rule = moves.MOVES[moves.EDGE_EXPAND].links

    def links(K, p, singular):
        return rule(K, {**p, "u_side": 1 - p["u_side"]}, singular)
    _rules(monkeypatch, (moves.EDGE_EXPAND,), links)


RULE_MUTANTS = (pachner_drops_an_rp2_class, contraction_keeps_one_class,
                fold_keeps_endpoint_spheres, handle_keeps_the_targets,
                unfold_keeps_a_moebius_corner, expansion_swaps_the_apex_sides)


def rule_runs():
    """Runs that reach every kind's links rule with a non-sphere class at
    stake, to be made under a gate: the replays of ``long_fold_walk(2)``
    (Pachner moves, contractions, a fold and expansions at RP^2
    vertices) and of the trace of ``rp2_handle_and_unfold`` (a handle
    with an RP^2 target and an unfold).  The inputs are built at once,
    before any mutant is patched in."""
    traces = [long_fold_walk(2).trace, rp2_handle_and_unfold()[1]]
    return [lambda: reducer.replay(traces[0]), lambda: reducer.replay(traces[1])]


def long_fold_walk(seed: int):
    """The fold walk of the corpus spec run on to budget 40: after its
    fold it makes Pachner moves, contractions and expansions next to the
    projective-plane vertices."""
    return gen.generate(gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", 40), ("allow_fold", True), ("g2_cap", 4),
    )))


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.txt").read_text()


@pytest.fixture(scope="session", name="fixture_text")
def _fixture_text_fixture():
    return fixture_text


@pytest.fixture(scope="session")
def fx():
    """Loader for the frozen 3-complex fixtures, cached per session."""
    cache = {}

    def load(name):
        if name not in cache:
            cache[name] = pio.load_complex(FIXTURES / f"{name}.txt")
        return cache[name]

    return load


@pytest.fixture(scope="session")
def rp2_surface():
    return pio.load_surface(FIXTURES / "rp2_6.txt")


@pytest.fixture(scope="session")
def walk():
    """``walk(seed, fold)``: the generated walk of the corpus spec, each
    built once per session and shared, so no test may rely on the caches
    of its complexes being cold."""
    cache = {}

    def build(seed, fold):
        if (seed, fold) not in cache:
            cache[seed, fold] = gen.generate(walk_spec(seed, fold))
        return cache[seed, fold]

    return build
