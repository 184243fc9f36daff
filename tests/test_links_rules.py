"""The links rules of the fold, the unfold, the handle and the expansion
against the reference recheck, at every site.

These four rules rest on a gluing or on a cut of a link: a fold and a
handle merge vertex pairs and glue their links, an unfold and an
expansion at a singular vertex give each new vertex the capped class of
one side of a cut link.  The gate here makes each such move at every site
its kind's ``sites`` enumerator yields (every ``HANDLE_STRIDE``-th for
HandleAdd, and both ``u_side`` values of each expansion at a singular
vertex) on certified copies of the fixtures, the fold ladder's rungs of
8 to 32 blocks, the final states of the corpus fold walks and complexes
built to reach what no corpus trace reaches: folds whose free corner is
an RP^2 vertex, handles at RP^2 vertices and a complex with a handle.
At each site the rule's map (``moves.singular_after``) must equal the
reference recheck ``normal_update``, which must never find the result
not normal.  A mutant of each of the four rules must fail the gate.
"""

from collections import Counter

import pytest

from pseudoform import generators as gen, moves
from pseudoform.complexes import SimplicialComplex
from pseudoform.errors import PseudoformError

from conftest import (COMPLEX_FIXTURES, FOLD_WALK_SEEDS, expansion_swaps_the_apex_sides,
                      fold_keeps_endpoint_spheres, fold_rung, handle_keeps_the_targets,
                      normal_update, rp2_handle, rp2_sum,
                      unfold_keeps_a_moebius_corner)
from test_local_revalidation import full_singular_map

KINDS = (moves.EDGE_FOLD, moves.HANDLE_ADD, moves.EDGE_UNFOLD, moves.EDGE_EXPAND)
HANDLE_STRIDE = 7


def _inputs(name, fx, walk):
    """The complexes of the input ``name``."""
    if name in COMPLEX_FIXTURES:
        return [fx(name)]
    if name.startswith("fold_rung"):
        return [fold_rung(int(name[len("fold_rung"):]))]
    if name == "fold-walks":
        return [walk(seed, True).complex for seed in FOLD_WALK_SEEDS]
    if name == "rp2-sum-on-spine":
        S = gen.spine_path_sphere(16)
        return [rp2_sum(S, len(S.facets) // 2)]
    if name == "rp2-sum-on-staircase":
        return [rp2_sum(gen.staircase_sphere(8), 0)]
    assert name == "handled"
    return [rp2_handle()[0]]


INPUTS = list(COMPLEX_FIXTURES) + [f"fold_rung{n}" for n in (8, 16, 24, 32)] + [
    "fold-walks", "rp2-sum-on-spine", "rp2-sum-on-staircase", "handled"]

# What each input must reach, beyond agreeing at every site.
REACHES = {
    "double_fold_g2_6": {"unfold", "unfold-at-singular-split-corner", "singular-expansion"},
    "fold_rung32": {"fold", "unfold", "singular-expansion"},
    "fold-walks": {"fold", "unfold", "singular-expansion"},
    "rp2-sum-on-spine": {"fold-at-singular-free-corner", "unfold"},
    "rp2-sum-on-staircase": {"handle-at-rp2-target"},
    "handled": {"unfold", "singular-expansion"},
}


def _sites(K, kind, singular):
    """The record values of each move of ``kind`` the gate makes on ``K``."""
    move = moves.MOVES[kind]
    for i, site in enumerate(move.sites(K)):
        values = dict(zip(move.inputs, site))
        if kind == moves.HANDLE_ADD and i % HANDLE_STRIDE:
            continue
        if kind != moves.EDGE_EXPAND:
            yield values
        elif values["vertex"] in singular:
            yield from ({**values, "u_side": side} for side in (0, 1))


def _features(rec, singular):
    """What the move ``rec`` reaches, as the tags of ``REACHES``."""
    p = rec.param_dict()
    if rec.kind == moves.EDGE_FOLD:
        free = {v for pair in p["psi"] if pair[0] != pair[1] for v in pair}
        return {"fold"} | ({"fold-at-singular-free-corner"} if free & singular.keys() else set())
    if rec.kind == moves.HANDLE_ADD:
        targets = {w for _, w in p["psi"]}
        return {"handle"} | ({"handle-at-rp2-target"} if targets & singular.keys() else set())
    if rec.kind == moves.EDGE_UNFOLD:
        return {"unfold"} | ({"unfold-at-singular-split-corner"}
                             if set(p["split_pair"]) & singular.keys() else set())
    return {"singular-expansion"}


def links_gate(K):
    """Make every move of ``KINDS`` the gate makes on a certified copy of
    ``K`` and compare each rule's map with the reference; returns the
    count of each feature reached."""
    K = SimplicialComplex(K.facets)
    singular = K._cache["singular"] = full_singular_map(K)
    assert singular is not None
    seen = Counter()
    for kind in KINDS:
        for values in _sites(K, kind, singular):
            try:
                K2, rec = moves.MOVES[kind].construct(K, values)
            except PseudoformError:
                assert kind == moves.EDGE_EXPAND  # candidate cycles only
                continue
            reference = normal_update(K, K2, singular)
            assert reference is not None, rec
            assert moves.singular_after(K, K2, rec) == reference, rec
            seen.update(_features(rec, singular))
    return seen


@pytest.mark.parametrize("name", INPUTS)
def test_rules_agree_with_the_recheck_at_every_site(name, fx, walk):
    seen = Counter()
    for K in _inputs(name, fx, walk):
        seen += links_gate(K)
    assert REACHES.get(name, set()) <= seen.keys()


@pytest.mark.parametrize("mutate", [fold_keeps_endpoint_spheres, handle_keeps_the_targets,
                                    unfold_keeps_a_moebius_corner,
                                    expansion_swaps_the_apex_sides])
def test_the_gate_fails_on_a_rule_mutant(mutate, fx, walk, monkeypatch):
    inputs = [K for name in ("foldable_sphere", "folded_g2_3", "rp2-sum-on-staircase")
              for K in _inputs(name, fx, walk)]
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        for K in inputs:
            links_gate(K)
