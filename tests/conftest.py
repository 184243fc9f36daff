import dataclasses
import pathlib
import random

import pytest
from hypothesis import settings

from pseudoform import generators as gen, io as pio, moves, reducer, surfaces
from pseudoform.complexes import SimplicialComplex

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


# Mutants of the rules that carry singular maps through a connected sum
# and a split; each patches one rule in with ``monkeypatch``.  On the
# complex and trace of ``rp2_second_summand`` the gates must fail them.

def _rules(monkeypatch, kinds, links):
    """Give each kind of ``kinds`` the links rule ``links``."""
    for kind in kinds:
        monkeypatch.setitem(moves.MOVES, kind, dataclasses.replace(moves.MOVES[kind], links=links))


def sum_keeps_only_the_first_class(monkeypatch):
    """Each glued vertex keeps its own class, not the sum of both."""
    def links(p, singular):
        targets = dict(p["psi"]).values()
        return {v: cls for v, cls in singular.items() if v not in targets}
    _rules(monkeypatch, (moves.CONNECTED_SUM,), links)


def sum_keeps_the_targets(monkeypatch):
    """The glued-away targets of psi stay in the map."""
    rule = moves.MOVES[moves.CONNECTED_SUM].links

    def links(p, singular):
        out = rule(p, singular)
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
    def links(p, singular):
        rp2 = [v for v, cls in singular.items() if cls.kind == surfaces.RP2]
        return {v: cls for v, cls in singular.items() if v not in rp2[:1]}
    _rules(monkeypatch, (moves.BISTELLAR1, moves.BISTELLAR2, moves.FACET_SUBDIVIDE,
                         moves.FACET_UNSUBDIVIDE), links)


def contraction_keeps_one_class(monkeypatch):
    """The merged vertex of an edge contraction gets the class of the
    second endpoint, not the sum of both."""
    def links(p, singular):
        u, v = p["edge"]
        out = {x: cls for x, cls in singular.items() if x not in (u, v)}
        if v in singular:
            out[p["fresh"]] = singular[v]
        return out
    _rules(monkeypatch, (moves.EDGE_CONTRACT,), links)


def expansion_never_declines(monkeypatch):
    """An edge expansion keeps the map at a singular vertex too."""
    _rules(monkeypatch, (moves.EDGE_EXPAND,), lambda p, singular: dict(singular))


RULE_MUTANTS = (pachner_drops_an_rp2_class, contraction_keeps_one_class,
                expansion_never_declines)


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
