"""EdgeFold's one precondition.

moves._edge_fold_check holds every check of an edge fold, and
fold_sites lists the candidates it passes without building a
complex.  The differential test here runs the check and edge_fold
itself on every candidate of a range of complexes: the check must pass
exactly when the fold succeeds.

Check and fold share the circle test, which reads the corner matching
off the cyclic order of the link of the folding edge.  So the check is
also compared with the test it replaced, kept below as a reference: it
glued the link edges of the two facets' corners and counted the
components that were left.  Both must give the same return value, or
the same exception class, message and details, on every candidate of
the fold ladder, folded and unfolded, the benchmark's walk corpus and
complexes whose edge links are not one circle.
"""

import hashlib
import itertools

import pytest

from pseudoform import complexes, generators as gen, moves, surfaces
from pseudoform.errors import MoveError, PseudoformError

from conftest import FOLD_WALK_SEEDS, SPHERE_WALK_SEEDS, fold_rung
from test_component_cut import not_normal_corpus

# sha256 of repr(admissible_folds(spine_path_sphere(n))), taken when
# every candidate was tried with a full edge_fold.
FOLD_LISTS = {
    8: "a1df6cb45487323a04d598f90a5d4818f5a4d486e5dcf015927ee274a5ce5a7f",
    16: "68539d3cf53a40175f29a3d1a63d91e7f56190d7bd56cbc2fd26539901b07dfa",
    32: "a2a48b56289edd16a8ce3214ebdc66a1a072accc7af8cea515ba3f295ace912a",
    64: "7b71973c23708b469718ac7b4984f9ea9efa37362cdcb56bba327967ce771ebb",
}


def candidates(K):
    """Each facet pair sharing an edge, with both matchings of the free
    corners and a map that swaps the edge's ends."""
    for s1, s2 in itertools.combinations(K.canonical_facets(), 2):
        shared = [x for x in s1 if x in s2]
        if len(shared) != 2:
            continue
        rest1 = [x for x in s1 if x not in shared]
        rest2 = [x for x in s2 if x not in shared]
        u, v = shared
        for image in ([u, v] + rest2, [u, v] + rest2[::-1],
                      [v, u] + rest2):
            yield s1, s2, dict(zip(shared + rest1, image))


def passes(fn, K, s1, s2, psi):
    try:
        fn(K, s1, s2, psi)
    except PseudoformError:
        return False
    return True


COMPLEXES = {
    **{f"spine{n}": lambda fx, walk, n=n: gen.spine_path_sphere(n)
       for n in range(6, 33)},
    **{f"staircase{n}": lambda fx, walk, n=n: gen.staircase_sphere(n)
       for n in (4, 8, 9, 16)},
    "cross": lambda fx, walk: gen.cross_polytope(),
    "foldable_sphere": lambda fx, walk: fx("foldable_sphere"),
    **{f"walk{seed}": lambda fx, walk, seed=seed: walk(seed, False).complex
       for seed in (104, 106, 108)},
    **{f"foldwalk{seed}": lambda fx, walk, seed=seed: walk(seed, True).complex
       for seed in (2, 3, 5)},
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_check_passes_exactly_when_the_fold_succeeds(name, fx, walk):
    K = COMPLEXES[name](fx, walk)
    outcomes = [
        (passes(moves._edge_fold_check, K, *c), passes(moves.edge_fold, K, *c))
        for c in candidates(K)
    ]
    assert outcomes
    assert all(check == fold for check, fold in outcomes)
    if name.startswith(("spine", "foldable")):
        assert any(fold for _check, fold in outcomes)


def test_fold_lists_are_unchanged():
    got = {
        n: hashlib.sha256(repr(gen.admissible_folds(
            gen.spine_path_sphere(n))).encode()).hexdigest()
        for n in FOLD_LISTS
    }
    assert got == FOLD_LISTS


# ---------------------------------------------------------- the reference


def reference_edge_fold_check(K, sigma1, sigma2, psi):
    """The check with its earlier circle test: glue the link edges of
    the folding edge and count the components they leave."""
    s1, s2 = moves._two_facets(K, sigma1, sigma2)
    shared = s1 & s2
    if len(shared) != 2:
        raise MoveError(
            f"facets must share exactly one edge, these share {sorted(shared)}"
        )
    u, v = sorted(shared)
    p = moves._check_psi(s1, s2, psi)
    if p.get(u) != u or p.get(v) != v:
        raise MoveError(
            f"gluing map must fix the shared edge ({u}, {v}) pointwise"
        )
    for y in sorted(s1 - shared):
        path = moves._two_path(K, y, p[y], avoid=shared)
        if path is not None:
            raise MoveError(
                f"fold pairs adjacent vertices {y} and {p[y]}" if len(path) == 2
                else f"2-path from {y} to {p[y]} through {path[1]} avoids the "
                f"folding edge ({u}, {v})",
                details=path,
            )
    merge = {p[x]: x for x in s1 - shared}
    glued = [[merge.get(x, x) for x in F - shared]
             for F in K._cofacets(shared) if F not in (s1, s2)]
    if surfaces._count_components(glued) != 1:
        raise MoveError(
            f"this matching splits the link circle of ({u}, {v}) in two; "
            "use the reversed pairing of the free corners",
            details=(u, v),
        )
    return s1, s2, shared, p


def outcome(check, K, *args):
    try:
        return "returned", check(K, *args)
    except PseudoformError as e:
        return type(e), str(e), getattr(e, "details", None)


def assert_checks_agree(K):
    """The check and the reference on every candidate of ``K``; returns
    how many candidates reached the circle test and how many passed."""
    reached = passed = 0
    for c in candidates(K):
        got = outcome(moves._edge_fold_check, K, *c)
        assert got == outcome(reference_edge_fold_check, K, *c), c
        passed += got[0] == "returned"
        reached += got[0] == "returned" or "link circle" in got[1]
    return reached, passed


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_check_matches_the_reference(name, fx, walk):
    reached, passed = assert_checks_agree(COMPLEXES[name](fx, walk))
    if name.startswith(("spine", "foldable")):
        assert reached > passed > 0


@pytest.mark.parametrize("n", range(6, 65))
def test_check_matches_the_reference_on_the_fold_ladder(n):
    reached, passed = assert_checks_agree(gen.spine_path_sphere(n))
    assert reached > passed > 0
    assert_checks_agree(fold_rung(n))


@pytest.mark.parametrize("fold", [False, True])
def test_check_matches_the_reference_on_the_walk_corpus(fold, walk):
    seeds = FOLD_WALK_SEEDS if fold else SPHERE_WALK_SEEDS
    reached = sum(assert_checks_agree(walk(seed, fold).complex)[0] for seed in seeds)
    assert reached > 0


def test_check_matches_the_reference_off_circles(walk, monkeypatch):
    """Where the link of the folding edge is no single circle, the check
    counts the components as the reference does."""
    calls = []
    count = surfaces._count_components
    monkeypatch.setattr(surfaces, "_count_components",
                        lambda edges: calls.append(1) or count(edges))
    fell_back = 0
    for K in not_normal_corpus(walk):
        for c in candidates(K):
            before = len(calls)
            got = outcome(moves._edge_fold_check, K, *c)
            if len(calls) > before:
                fell_back += 1
                assert complexes._edge_circle(K, frozenset(c[0]) & frozenset(c[1])) is None
            assert got == outcome(reference_edge_fold_check, K, *c), c
    assert fell_back > 0


# ------------------------------------------------ the operation-count guard


def test_listing_folds_counts_no_components(monkeypatch):
    """On spine(64) the listing runs the check twice per facet pair
    sharing one edge, builds each edge circle at most once and never
    glues a link to count its components."""
    K = gen.spine_path_sphere(64)
    counts = {"check": 0, "components": 0, "built": {}}
    check, circle = moves._edge_fold_check, moves._edge_circle

    def counted_check(*args):
        counts["check"] += 1
        return check(*args)

    def counted_circle(K, e):
        if e not in K._cache.get("edge_circles", {}):
            counts["built"][e] = counts["built"].get(e, 0) + 1
        return circle(K, e)

    def no_components(edges):
        counts["components"] += 1
        return 1

    monkeypatch.setattr(moves, "_edge_fold_check", counted_check)
    monkeypatch.setattr(moves, "_edge_circle", counted_circle)
    monkeypatch.setattr(surfaces, "_count_components", no_components)
    folds = gen.admissible_folds(K)
    assert hashlib.sha256(repr(folds).encode()).hexdigest() == FOLD_LISTS[64]
    assert counts["check"] == 5666
    assert counts["components"] == 0
    assert counts["built"] and max(counts["built"].values()) == 1
