"""The random walk's lazy site lists and its carried singular map.

At each step the walk takes only the first site of every kind it may
draw, and lists a kind in full only when it tries that kind; it gets
each candidate's singular map from ``moves.singular_after``, the kind's
links rule or ``normal_update``, from the map it carries.  The tests
here compare both with the full computation (and each map with
``normal_update``) at every step of a set of walks, and pin the traces
of the benchmark's walks, so that a change in the walk's random draws
shows.
"""

import dataclasses
import hashlib
import itertools

import pytest

from pseudoform import complexes, generators as gen, moves, reducer
from pseudoform.surfaces import RP2

from test_local_revalidation import full_singular_map

# sha256 of ``format_trace`` of the walk-corpus walks at budget 20:
# sphere walks by seed (g2 cap 9), fold walks by seed (g2 cap 4).
SPHERE_WALKS = {
    100: "85f30d7551fbe1481598fce8bcdfb97b1da095ed85e3648ffaa5d00e9e612e05",
    101: "84ed4c3e06e10a713d1dc193c8aef37bb782b5f45f2507e56bfbf4cf55ba90ba",
    102: "24fb54fb625d9002be1df58004973b8ec99ec7bf89685b4c28ca4772229992cf",
    103: "77f197ece2cd0a14863235d84e43c82285d64a25e2a1cb6ae0979c3f99badf9d",
    104: "768e6903edde9f46ee7ebb529817543d96754dbadf95d388e178cc94388a13c0",
    105: "3978986d5100229b0527cda1e6dd98b97f5dbd7ffde6a6d3772ffea384ff867c",
    106: "cfedc8343c752db9c0290c184620cfe76914f20f07c64b71861ac0455669c057",
    107: "4212d38cd3315c23b6fb2b314a73074cf8f07b35904de69541d8903cff6e7195",
    108: "4667b30299206517399957bce7e3c978e520500bebc0017716f45cce407ea281",
    109: "517458f8e4a6097782c5905dbda35d7f31516959b4241e720a4e6b04dcd615f5",
    110: "f8f6fe8fd920b6dbf0b4c1dd9363085a00c88480771226a80e4db2bebe119917",
    111: "4414d279879919b3811916645f076847efa7cf19d5ff968c2cf60546d0bbf603",
    112: "ce5c9d47b14f671987852f26706b5ba459f0a84a11c23b17f914ecdd5515d06e",
    113: "0caa8d47891d97801071153d6df9204537114bc07cbb734bf8b8ed1eda0797c2",
    114: "c10ef91fd44765894be8b823872f509e91758b048099f57875534281f09ec61e",
    115: "3162dc6007525bd45201598f9ebe57b3430bcf1f134090127219c0cb3f831726",
    116: "98a441d6566fa078682887593a7bd222fc14a0891587541d7015aa0854f931d3",
    117: "a72ec046aa3602b9352eb0287dc584a29d6a216959abe50f89a7bea4326fdb93",
    118: "02f38d4f9b6397dc48e868682ca89bbe0cba9226a46491e52050cb9e59a81a62",
    119: "c4e9bbf7aae611916f5a2bbda5d789def481ff1d46ab9816292219c6fcb8bae2",
}
FOLD_WALKS = {
    0: "c07ec980ef1507b94fc2445da9e8823ad070a2523921f45f32484958156a32d9",
    1: "b57d0767df11dc105b3ca31865544c46f8d8369f4a2eeea9715c7ba90857497a",
    2: "3abad54c9719f5f38ad9d376e0a80f38932d127d6b049a8bf3692a2ed810c00b",
    3: "983697ca5e7ea0e31841cfce7741d87ec3f40a8c4dcc6c63db9b7cb7eb8a141d",
    4: "05378d953b708f48a3af572831a9f61677413df9abea9f96070312a18023637d",
    5: "0001ff4127ddac30c5d8e46149319dec287eb4adf033859ab56d3ef4af2edc07",
    6: "be76e82a98203d5716bdbef84a5032c31f833c4f5edc62043107bb6ac4316fc9",
    7: "d672e2edcc0e8fd06a29bd1928b5d3adc5ccc101651f78095db6385f9ec9c8fa",
    8: "7268fcfabbe97fdd4a6dd0dc39f6029f762fd853df862c1374475976b5c09846",
    9: "dba4cbfd1190847115f467cb7c74cc1acabce6c043a3882a5f925e18654964a3",
    10: "e4b1343e9fd0199c33faf7c059cf168acffbf41482458fb8b25025ad7891b7eb",
    11: "786821e8e79666f36379ccbf6d3565b6cc40037fc14293e469308f55ee930b78",
    12: "736a86a53360bd4b8324a9e927a5c7e94aa9741c115fe25f982b5dcb41cde2b0",
    13: "5d90605514e5278a1b230834874622e88150d2dbf8850445d5171acf1dd836cb",
    14: "9ad627f60465a785a7a4bab6c44be1b9bcbe6e79844eb9cf3ee7e8bba321822a",
    15: "05fad0170050974d0be04e1731657331be33b698a0ee33efd5afae4b759f4d71",
}


def _spec(seed, fold, budget, g2_cap=None):
    if g2_cap is None:
        g2_cap = 4 if fold else 9
    return gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", budget), ("allow_fold", fold),
        ("g2_cap", g2_cap),
    ))


def test_walk_traces_are_pinned():
    got = {
        (seed, fold): hashlib.sha256(reducer.format_trace(
            gen.generate(_spec(seed, fold, 20)).trace).encode()).hexdigest()
        for fold, pinned in ((False, SPHERE_WALKS), (True, FOLD_WALKS))
        for seed in pinned
    }
    want = {(s, False): d for s, d in SPHERE_WALKS.items()}
    want.update({(s, True): d for s, d in FOLD_WALKS.items()})
    assert got == want


# ------------------------------------------------------ the differential gate


def _link_cycles(K):
    """EdgeExpand's candidates listed in full: each vertex with the
    triangles and missing triangles of its link."""
    out = []
    for v in sorted(K.vertices):
        L = K.link((v,))
        cycles = (*L.faces(2), *L.missing_faces(2))
        out += [(v, c) for c in sorted(tuple(sorted(t)) for t in cycles)]
    return out


# Each kind the walk draws from, with its full site list in table form.
FULL_LISTS = {
    moves.BISTELLAR1: moves.bistellar_one_sites,
    moves.BISTELLAR2: moves.bistellar_two_sites,
    moves.EDGE_CONTRACT: moves.contractible_edges,
    moves.EDGE_EXPAND: _link_cycles,
    moves.TWO_FACETS_INSERT: moves.insertion_sites,
    moves.TWO_FACETS_CONTRACT: lambda K: [
        ((u, v), t) for u, v, t in moves.contraction_pair_sites(K)],
    moves.EDGE_FOLD: gen.admissible_folds,
    moves.FACET_SUBDIVIDE: lambda K: [(F,) for F in K.canonical_facets()],
    moves.FACET_UNSUBDIVIDE: moves.unsubdividable_vertices,
}


def full_scope(K, g2_cap):
    """The oracle: ``validate_normal`` on every component plus the walk's
    scope rule.  K's singular map, or None when K is out of scope."""
    out = {}
    for comp in K.connected_components():
        rep = complexes.validate_normal(comp)
        if not rep.is_normal_closed:
            return None
        sing = rep.singular_vertices
        if sing and (len(sing) != 2 or any(c.kind != RP2 for _, c in sing)
                     or comp.f_vector().g2 not in (3, 4)):
            return None
        out.update(sing)
    return out if complexes.total_g2(K) <= g2_cap else None


def test_full_lists_cover_the_walk_kinds():
    assert set(FULL_LISTS) == set(gen._WALK_KINDS)


@pytest.fixture
def watched(monkeypatch):
    """Record every site list the walk opens (the complex, the sites it
    pulled, whether it reached the end), check each tried kind against
    its full list, and check every candidate's scope verdict and
    singular map against the oracle and ``normal_update``."""
    opened = []
    latest = {}
    counts = {"tried": 0, "candidates": 0, "maps": 0}

    def watch_sites(kind, sites):
        def wrapped(K):
            rec = {"kind": kind, "K": K, "pulled": [], "done": False}
            opened.append(rec)
            latest[kind] = rec
            for site in sites(K):
                rec["pulled"].append(site)
                yield site
            rec["done"] = True
        return wrapped

    def watch_construct(kind, construct):
        def wrapped(K, values):
            rec = latest[kind]
            assert rec["K"] is K and rec["done"]
            assert rec["pulled"] == FULL_LISTS[kind](K)
            counts["tried"] += 1
            return construct(K, values)
        return wrapped

    for kind in gen._WALK_KINDS:
        m = moves.MOVES[kind]
        monkeypatch.setitem(moves.MOVES, kind, dataclasses.replace(
            m, sites=watch_sites(kind, m.sites),
            construct=watch_construct(kind, m.construct)))

    scope_update, singular_after = gen._scope_update, moves.singular_after

    def checked(K, K2, rec, singular, g2_cap):
        got = scope_update(K, K2, rec, singular, g2_cap)
        assert got == full_scope(K2, g2_cap)
        counts["candidates"] += 1
        return got

    def checked_map(K, K2, rec, singular):
        got = singular_after(K, K2, rec, singular)
        assert got == complexes.normal_update(K, K2, singular)
        assert got == full_singular_map(K2)
        counts["maps"] += 1
        return got

    monkeypatch.setattr(gen, "_scope_update", checked)
    monkeypatch.setattr(moves, "singular_after", checked_map)
    return opened, counts


# Sphere and fold walks at budget 12; the two fold walks that fold (at
# their twelfth move) run on from their singular states; and two fold
# walks at g2 cap 9 that meet candidates only the rule on singular
# components rejects (a component with g2 above 4).
GATE_WALKS = [(seed, False, 12, 9) for seed in range(100, 120)]
GATE_WALKS += [(seed, True, 12, 4) for seed in range(16)]
GATE_WALKS += [(2, True, 20, 4), (14, True, 20, 4)]
GATE_WALKS += [(15, True, 20, 9), (34, True, 20, 9)]


@pytest.mark.parametrize("seed, fold, budget, g2_cap", GATE_WALKS)
def test_lazy_walk_matches_full_lists_and_full_validation(
    seed, fold, budget, g2_cap, watched
):
    opened, counts = watched
    g = gen.generate(_spec(seed, fold, budget, g2_cap))
    steps = [list(group) for _, group in
             itertools.groupby(opened, key=lambda rec: id(rec["K"]))]
    assert len(steps) == len(g.trace.forward_moves) + (1 if g.stalled else 0)
    for step in steps:
        K = step[0]["K"]
        full = {rec["kind"]: FULL_LISTS[rec["kind"]](K) for rec in step}
        allowed = set(gen._WALK_KINDS)
        if not fold or full_scope(K, g2_cap):
            allowed.discard(moves.EDGE_FOLD)
        assert set(full) == allowed
        assert {k for k in full if full[k]} == {
            rec["kind"] for rec in step if rec["pulled"]}
        for rec in step:
            want = full[rec["kind"]]
            if rec["done"]:
                assert rec["pulled"] == want
            else:  # not tried: only the first site was taken
                assert rec["pulled"] == want[:1]
    assert counts["tried"] >= len(g.trace.forward_moves)
    assert counts["candidates"] >= len(g.trace.forward_moves)
    assert counts["maps"] >= len(g.trace.forward_moves)
