"""EdgeFold's one precondition.

moves._edge_fold_check holds every check of an edge fold, and
fold_sites lists the candidates it passes without building a
complex.  The differential test here runs the check and edge_fold
itself on every candidate of a range of complexes: the check must pass
exactly when the fold succeeds.
"""

import hashlib
import itertools

import pytest

from pseudoform import generators as gen, moves
from pseudoform.errors import PseudoformError

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


def walk(seed, fold):
    return gen.generate(gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", 20), ("allow_fold", fold),
        ("g2_cap", 4 if fold else 9),
    ))).complex


COMPLEXES = {
    **{f"spine{n}": lambda fx, n=n: gen.spine_path_sphere(n)
       for n in range(6, 33)},
    **{f"staircase{n}": lambda fx, n=n: gen.staircase_sphere(n)
       for n in (4, 8, 9, 16)},
    "cross": lambda fx: gen.cross_polytope(),
    "foldable_sphere": lambda fx: fx("foldable_sphere"),
    **{f"walk{seed}": lambda fx, seed=seed: walk(seed, False)
       for seed in (104, 106, 108)},
    **{f"foldwalk{seed}": lambda fx, seed=seed: walk(seed, True)
       for seed in (2, 3, 5)},
}


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_check_passes_exactly_when_the_fold_succeeds(name, fx):
    K = COMPLEXES[name](fx)
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
