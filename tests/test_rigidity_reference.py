"""The sparse rigidity rank against its earlier dense form.

``rigidity_rank`` takes the rank in one sparse row echelon pass.  The
reference below is the routine as it was before: dense rows of length
dim*|V| and a Gauss-Jordan elimination with row swaps.  Both see the
same random coordinates, so the whole verdict (rank, trials, string)
must be equal, and must not depend on the order the edges come in.
"""

import itertools
import random
from math import comb

from hypothesis import example, given, strategies as st

from pseudoform import generators as gen, moves, rigidity
from pseudoform.defaults import DEFAULT_SEED
from pseudoform.rigidity import DEFAULT_PRIME, DEFAULT_TRIALS, RigidityVerdict

from conftest import COMPLEX_FIXTURES


def dense_rank_mod_p(rows, p):
    """Gauss-Jordan elimination over GF(p); rows are mutable int lists."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % p, p - 2, p)
        prow = [(x * inv) % p for x in rows[rank]]
        rows[rank] = prow
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col] % p
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


def reference_rank(vertices, edges, dim=4, seed=DEFAULT_SEED,
                   trials=DEFAULT_TRIALS):
    """The verdict as the dense routine gave it."""
    prime = DEFAULT_PRIME
    vs = sorted(set(vertices))
    es = sorted(frozenset(e) for e in edges)
    index = {v: i for i, v in enumerate(vs)}
    expected = dim * len(vs) - comb(dim + 1, 2)
    ceiling = min(len(es), expected)
    rng = random.Random(seed)
    best = 0
    used = 0
    for _ in range(max(1, trials)):
        used += 1
        coords = [[rng.randrange(prime) for _ in range(dim)] for _ in vs]
        rows = []
        for e in es:
            u, v = sorted(e)
            iu, iv = index[u], index[v]
            row = [0] * (dim * len(vs))
            for k in range(dim):
                d = (coords[iu][k] - coords[iv][k]) % prime
                row[dim * iu + k] = d
                row[dim * iv + k] = (-d) % prime
            rows.append(row)
        best = max(best, dense_rank_mod_p(rows, prime))
        if best == ceiling:
            break
    return RigidityVerdict(
        graph_size=(len(vs), len(es)),
        ambient_dim=dim,
        rank=best,
        expected_full_rank=expected,
        is_generically_rigid=(best == expected),
        trials=used,
        prime=prime,
    )


def folded_spine(n):
    """spine_path_sphere(n) folded at the middle of its admissible folds."""
    S = gen.spine_path_sphere(n)
    folds = gen.admissible_folds(S)
    s1, s2, psi = folds[len(folds) // 2]
    return moves.edge_fold(S, s1, s2, dict(psi))[0]


def corpus(fx, walk):
    out = {name: fx(name) for name in COMPLEX_FIXTURES}
    for n in (8, 16, 32, 64):
        out[f"staircase{n}"] = gen.staircase_sphere(n)
        out[f"spinefold{n}"] = folded_spine(n)
    for seed in range(100, 120):
        out[f"walk{seed}"] = walk(seed, False).complex
    for seed in range(16):
        out[f"foldwalk{seed}"] = walk(seed, True).complex
    return out


def shuffled_edges(edges, seed):
    """The edges in a shuffled order, each as a tuple in random
    orientation."""
    rng = random.Random(seed)
    out = [tuple(sorted(e, reverse=rng.random() < 0.5)) for e in edges]
    rng.shuffle(out)
    return out


def test_corpus_verdicts_match_dense_reference(fx, walk):
    for name, K in corpus(fx, walk).items():
        edges = list(K.faces(1))
        want = reference_rank(K.vertices, edges)
        got = rigidity.complex_rigidity(K)
        assert got == want, name
        assert str(got) == str(want), name
        assert rigidity.rigidity_rank(
            K.vertices, shuffled_edges(edges, len(edges))) == want, name


def test_floppy_union_takes_every_trial():
    A = gen.cross_polytope()
    B = A.relabeled({v: v + 10 for v in A.vertices})
    vertices = A.vertices | B.vertices
    edges = list(A.faces(1)) + list(B.faces(1))
    want = reference_rank(vertices, edges)
    assert want.trials == DEFAULT_TRIALS and not want.is_generically_rigid
    assert rigidity.rigidity_rank(vertices, edges) == want
    assert rigidity.rigidity_rank(vertices, shuffled_edges(edges, 1)) == want


@st.composite
def graphs(draw):
    n = draw(st.integers(5, 12))
    dim = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    return n, dim, edges


@given(graphs(), st.integers(0, 2**32), st.integers(1, 4))
@example((6, 4, [(i, i + 1) for i in range(5)]), 0, 3)
@example((6, 2, list(itertools.combinations(range(4), 2))), 7, 3)
@example((12, 4, list(itertools.combinations(range(12), 2))), 1, 3)
def test_random_graphs_match_dense_reference(graph, seed, trials):
    n, dim, edges = graph
    want = reference_rank(range(n), edges, dim=dim, seed=seed, trials=trials)
    got = rigidity.rigidity_rank(range(n), edges, dim=dim, seed=seed,
                                 trials=trials)
    assert got == want
    assert rigidity.rigidity_rank(
        range(n), shuffled_edges(edges, seed), dim=dim, seed=seed,
        trials=trials) == want


def test_property_reaches_rank_deficient_graphs():
    # The strategy above must also draw floppy graphs, on which a
    # verdict takes more than one trial.
    seen = []

    @given(graphs())
    def probe(graph):
        n, dim, edges = graph
        seen.append(reference_rank(range(n), edges, dim=dim).trials)

    probe()
    assert max(seen) == DEFAULT_TRIALS
    assert min(seen) == 1
