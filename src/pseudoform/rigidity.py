"""Generic rigidity ranks over a prime field, and g2 lower bounds.

The rigidity matrix of a graph in ambient dimension d has one row per
edge and d columns per vertex: the row of edge uv carries the vector
p(u) - p(v) in u's column block and its negation in v's block.  At
generic positions its rank is the generic rigidity rank; a graph on
at least d+1 vertices is generically rigid when the rank reaches
d*|V| - C(d+1,2).

Random positions modulo a large prime stand in for generic ones.  A
full-rank outcome is a certificate (specialization can only lose
rank); a deficit could in principle be bad luck, so the verdict
records how many trials were taken.  For a 3-dimensional complex the
interesting ambient dimension is 4, where |E| - rank = g2 whenever
the skeleton is rigid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from random import Random
from typing import Iterable

from .complexes import SimplicialComplex, _as_complex, _vertex_link
from .defaults import DEFAULT_SEED
from .errors import DimensionError
from .surfaces import surface_g2

# Mersenne prime 2^61 - 1; comfortably above any desk-scale matrix
# size, so a rank deficit across independent trials is overwhelming
# evidence of genuine degeneracy.
DEFAULT_PRIME = (1 << 61) - 1
DEFAULT_TRIALS = 3


@dataclass(frozen=True)
class RigidityVerdict:
    graph_size: tuple  # (|V|, |E|)
    ambient_dim: int
    rank: int
    expected_full_rank: int
    is_generically_rigid: bool
    trials: int
    prime: int = DEFAULT_PRIME

    @property
    def edge_excess(self) -> int:
        """|E| - rank; equals g2 for rigid complex skeletons."""
        return self.graph_size[1] - self.rank

    def __str__(self) -> str:
        v, e = self.graph_size
        tag = "rigid" if self.is_generically_rigid else "not-rigid"
        return (
            f"V={v} E={e} dim={self.ambient_dim} rank={self.rank}"
            f"/{self.expected_full_rank} {tag} excess={self.edge_excess}"
        )


def _rank(coords: list, pairs: list, dim: int) -> int:
    """Rank over GF(p) of the rigidity matrix at ``coords`` with one
    row per index pair, in one sparse row echelon pass."""
    p = DEFAULT_PRIME
    pivots: dict = {}  # leading column -> row scaled to lead 1
    for iu, iv in pairs:
        row = {}
        for k in range(dim):
            d = (coords[iu][k] - coords[iv][k]) % p
            if d:
                row[dim * iu + k] = d
                row[dim * iv + k] = p - d
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: x * inv % p for c, x in row.items()}
                break
            f = row[lead]
            for c, x in pivot.items():
                row[c] = (row.get(c, 0) - f * x) % p
                if not row[c]:
                    del row[c]
    return len(pivots)


def rigidity_rank(
    vertices: Iterable[int],
    edges: Iterable,
    dim: int = 4,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> RigidityVerdict:
    """Probabilistic-exact generic rigidity rank of a graph.

    Runs up to ``trials`` independent random evaluations, keeping the
    best rank and stopping early once the theoretical ceiling
    min(|E|, dim*|V| - C(dim+1,2)) is reached.
    """
    if not isinstance(dim, int) or dim < 1:
        raise DimensionError(f"ambient dimension must be at least 1, got {dim!r}")
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise DimensionError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise DimensionError(f"trials must be at least 1, got {trials}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DimensionError(f"seed must be an integer, got {seed!r}")
    try:
        vs = sorted(set(vertices))
    except TypeError:
        raise DimensionError("vertices must be iterable and orderable") from None
    index = {v: i for i, v in enumerate(vs)}
    if len(vs) < dim + 1:
        raise DimensionError(
            f"need at least {dim + 1} vertices for dimension {dim}, got {len(vs)}"
        )
    try:
        pairs = sorted((index[u], index[v]) for u, v in map(sorted, edges))
    except (TypeError, ValueError, KeyError):
        pairs = None
    if pairs is None or any(i == j for i, j in pairs):
        raise DimensionError("edges must be vertex pairs inside the vertex set")
    expected = dim * len(vs) - comb(dim + 1, 2)
    ceiling = min(len(pairs), expected)

    rng = Random(seed)
    best = 0
    for used in range(1, trials + 1):
        coords = [[rng.randrange(DEFAULT_PRIME) for _ in range(dim)] for _ in vs]
        best = max(best, _rank(coords, pairs, dim))
        if best == ceiling:
            break
    return RigidityVerdict(
        graph_size=(len(vs), len(pairs)),
        ambient_dim=dim,
        rank=best,
        expected_full_rank=expected,
        is_generically_rigid=(best == expected),
        trials=used,
    )


def complex_rigidity(
    K: SimplicialComplex,
    seed: int = DEFAULT_SEED,
    trials: int = DEFAULT_TRIALS,
) -> RigidityVerdict:
    """Rigidity verdict of the 1-skeleton of a 3-complex in dimension 4."""
    K = _as_complex(K, "complex_rigidity")
    return rigidity_rank(K.vertices, K.faces(1), dim=4, seed=seed, trials=trials)


def _link_surface_g2(K: SimplicialComplex, v: int) -> int:
    return surface_g2(K.link((v,)).facets)


def external_link_edges(K: SimplicialComplex, v: int) -> list:
    """Edges of K with both endpoints in lk(v) that are not link edges."""
    lv = _as_complex(K, "external_link_edges").neighbors(v)
    lk = _vertex_link(K, v).edges
    return sorted((e for e in K.faces(1) if e <= lv and tuple(sorted(e)) not in lk),
                  key=sorted)


def check_star_bound(K: SimplicialComplex, v: int) -> bool:
    """g2 of the complex is at least the surface g2 of the vertex link."""
    return _as_complex(K, "check_star_bound").f_vector().g2 >= _link_surface_g2(K, v)


def check_cone_augmented_bound(K: SimplicialComplex, v: int) -> "tuple[int, bool]":
    """Sharpened star bound: g2(K) >= g2(lk v) + n, with n the number
    of complex edges spanned by link vertices that the link is missing.

    Returns (n, whether the bound holds).
    """
    n = len(external_link_edges(_as_complex(K, "check_cone_augmented_bound"), v))
    holds = K.f_vector().g2 >= _link_surface_g2(K, v) + n
    return n, holds
