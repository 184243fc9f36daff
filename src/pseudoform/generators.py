"""Construction of test-worthy complexes, each with a replayable trace.

Deterministic families (boundary simplex, stacked spheres, the
cross-polytope, spheres with a high-degree spine edge, staircase
spheres) plus seeded random walks over the local moves.  Everything a
generator emits comes with a :class:`~pseudoform.reducer.ConstructionTrace`
that replays to the returned complex label for label.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re
from dataclasses import dataclass
from typing import Optional

from . import moves, reducer
from .complexes import SimplicialComplex, _as_complex, _singular_map, total_g2
from .defaults import DEFAULT_SEED
from .errors import MoveError, PseudoformError, SpecError, _refusing

MAX_BLOCKS = 2048
"""The most blocks a sphere family may have.  At the limit each family
builds in under three seconds of CPU on a 2-core Xeon host; a larger
count is refused before anything is built."""

MAX_BUDGET = 1000
"""The most moves a random walk may try to make.  At the limit a walk
took 2.5 to 7.3 s of CPU on a 2-core Xeon host (four seeds, with and
without folds); a larger budget is refused before the walk starts."""


def _integer(name: str, value) -> int:
    """``value`` checked as an int, which a bool is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return value


def _count(name: str, value, least: int, most: int) -> int:
    """``value`` checked as a count: an int from ``least`` to ``most``."""
    if not least <= _integer(name, value) <= most:
        raise SpecError(f"{name} must be from {least} to {most}, got {value}")
    return value


def boundary_simplex(base: int = 0) -> SimplicialComplex:
    """The boundary of a 4-simplex on labels base..base+4."""
    base = _integer("base", base)
    return SimplicialComplex.from_facets(
        itertools.combinations(range(base, base + 5), 4)
    )


def spine_path_sphere(blocks: int) -> SimplicialComplex:
    """Sphere built by repeatedly subdividing a facet at the edge {0,1}.

    With ``blocks`` >= 6 the edge {0,1} has degree >= 8 and its link
    cycle is long enough that folds identifying well-separated facets
    become admissible; these are the standard foldable test spheres.
    """
    blocks = _count("blocks", blocks, 1, MAX_BLOCKS)
    K = boundary_simplex()
    for j in range(1, blocks):
        K, _ = moves.facet_subdivide(K, (0, 1, j + 2, j + 3), fresh=j + 4)
    return K


def staircase_sphere(blocks: int) -> SimplicialComplex:
    """Stacked sphere whose blocks form a line with a drifting frontier.

    Each subdivision targets the four most recent labels, so vertex
    roles retire as the construction advances; with 9 or more blocks
    the two ends are far enough apart for a handle identification.
    """
    blocks = _count("blocks", blocks, 1, MAX_BLOCKS)
    K = boundary_simplex()
    for w in range(5, blocks + 4):
        K, _ = moves.facet_subdivide(K, (w - 4, w - 3, w - 2, w - 1), fresh=w)
    return K


def cross_polytope() -> SimplicialComplex:
    """The 16-cell: 8 vertices in antipodal pairs, 16 facets."""
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    return SimplicialComplex.from_facets(itertools.product(*pairs))


# ---------------------------------------------------------------------
# fold and handle search
# ---------------------------------------------------------------------


def admissible_folds(K: SimplicialComplex) -> list:
    """All admissible folds as (sigma1, sigma2, psi-pairs), sorted."""
    return list(moves.fold_sites(_as_complex(K, "admissible_folds")))


def find_admissible_fold(K: SimplicialComplex) -> Optional[tuple]:
    """Lexicographically first admissible fold, or None."""
    return next(moves.fold_sites(_as_complex(K, "find_admissible_fold")), None)


def admissible_handles(K: SimplicialComplex) -> list:
    """All admissible handles, sorted: two facets of one component glued
    by a map that moves every vertex to graph distance at least 3."""
    return list(moves.handle_sites(_as_complex(K, "admissible_handles")))


def find_admissible_handle(K: SimplicialComplex) -> Optional[tuple]:
    """Lexicographically first admissible handle, or None."""
    return next(moves.handle_sites(_as_complex(K, "find_admissible_handle")), None)


# ---------------------------------------------------------------------
# generator specs
# ---------------------------------------------------------------------

BOUNDARY_SIMPLEX = "BoundarySimplex"
STACKED_SPHERE = "StackedSphere"
CROSS_POLYTOPE = "CrossPolytope"
RANDOM_MOVES = "RandomMoves"

_SPEC_RE = re.compile(r"^([A-Za-z]+)(?:\((.*)\))?$")


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator kind and its (key, value) parameters.  The methods
    raise :class:`SpecError` on a hand-built spec whose members are not
    of their types."""

    kind: str
    params: tuple  # ((key, value), ...)

    @_refusing(SpecError)
    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    @_refusing(SpecError)
    def __str__(self) -> str:
        if not self.params:
            return f"{self.kind}"
        inner = ",".join(f"{k}={_fmt(v)}" for k, v in self.params)
        return f"{self.kind}({inner})"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


_SPEC_DEFAULTS = {
    BOUNDARY_SIMPLEX: (),
    STACKED_SPHERE: (("blocks", 3),),
    CROSS_POLYTOPE: (),
    RANDOM_MOVES: (
        ("seed", DEFAULT_SEED),
        ("budget", 20),
        ("allow_fold", False),
        ("g2_cap", 9),
    ),
}


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse e.g. ``StackedSphere(4)`` or
    ``RandomMoves(seed=7,budget=30,allow_fold=true)``."""
    if not isinstance(text, str):
        raise SpecError(f"a generator spec is text, got {text!r}")
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise SpecError(f"bad generator spec {text!r}")
    kind, argtext = m.group(1), m.group(2)
    if kind not in _SPEC_DEFAULTS:
        known = ", ".join(sorted(_SPEC_DEFAULTS))
        raise SpecError(f"unknown generator {kind!r} (known: {known})")
    params = dict(_SPEC_DEFAULTS[kind])
    if argtext:
        tokens = [t.strip() for t in argtext.split(",") if t.strip()]
        positional = [k for k, _ in _SPEC_DEFAULTS[kind]]
        for i, tok in enumerate(tokens):
            if "=" in tok:
                key, val = (s.strip() for s in tok.split("=", 1))
            else:
                if i >= len(positional):
                    raise SpecError(f"too many arguments in {text!r}")
                key, val = positional[i], tok
            if key not in params:
                raise SpecError(f"unknown argument {key!r} for {kind}")
            if val in ("true", "false"):
                params[key] = val == "true"
            else:
                try:
                    params[key] = int(val)
                except ValueError:
                    raise SpecError(
                        f"argument {key}={val!r} is neither an integer "
                        "nor true/false"
                    ) from None
    return GeneratorSpec(kind, tuple(params.items()))


@dataclass(frozen=True)
class GeneratedComplex:
    spec: GeneratorSpec
    complex: SimplicialComplex
    trace: "reducer.ConstructionTrace"
    stalled: bool = False
    note: str = ""


def _gen_stacked(blocks: int, seed: int) -> GeneratedComplex:
    """Stacked sphere as an explicit chain of connected sums.

    Each new block is a fresh boundary simplex glued over a randomly
    chosen facet; only the block's apex label survives the gluing.  The
    blocks are laid out at once, as the trace's seeds are in replay, and
    each sum is a successor of the state before.  The sorted facet list
    the choice draws from is patched as facets come and go.
    """
    blocks = _count("blocks", blocks, 1, MAX_BLOCKS)
    rng = random.Random(seed)
    seeds = [boundary_simplex(base=5 * i) for i in range(blocks)]
    K = SimplicialComplex(F for block in seeds for F in block.facets)
    facets = seeds[0].canonical_facets()
    forward = []
    for i in range(1, blocks):
        target = rng.choice(facets)
        glue = tuple(range(5 * i, 5 * i + 4))
        K, rec = moves.connected_sum_in(K, target, glue, dict(zip(target, glue)))
        forward.append((0, rec))
        del facets[bisect.bisect_left(facets, target)]
        for x in target:  # the block's other facets: the apex 5i + 4 is the largest label
            bisect.insort(facets, tuple(y for y in target if y != x) + (5 * i + 4,))
    spec = GeneratorSpec(STACKED_SPHERE, (("blocks", blocks),))
    return GeneratedComplex(spec, K, reducer._trace(K, seeds, forward))


# The kinds a walk draws from.
_WALK_KINDS = (moves.BISTELLAR1, moves.BISTELLAR2, moves.EDGE_CONTRACT,
               moves.EDGE_EXPAND, moves.TWO_FACETS_INSERT, moves.TWO_FACETS_CONTRACT,
               moves.EDGE_FOLD, moves.FACET_SUBDIVIDE, moves.FACET_UNSUBDIVIDE)


def _scope_update(
    K: SimplicialComplex, K2: SimplicialComplex, rec: "moves.MoveRecord", g2_cap: int,
) -> Optional[dict]:
    """The singular map of ``K2``, which the move ``rec`` made from ``K``,
    or None when ``K2`` leaves the walk's scope.

    ``K`` is in scope and carries its map.  ``moves.singular_after``
    gives the map of ``K2`` and stores it there: every kind's links rule
    reads it off ``K`` and the record, and no candidate rechecks a link.
    In scope means: total g2 at most the cap, every component normal
    closed, and each component with singular vertices in the reducer's
    scope for them (``reducer._singular_out_of_scope``).  Components are
    formed only when there are singular vertices.
    """
    if total_g2(K2) > g2_cap:
        return None
    sing = moves.singular_after(K, K2, rec)
    if sing:
        for comp in K2.connected_components():
            here = {v: cls for v, cls in sing.items() if v in comp.vertices}
            if here and reducer._singular_out_of_scope(comp, here):
                return None
    return sing


def _gen_random(
    seed: int, budget: int, allow_fold: bool, g2_cap: int
) -> GeneratedComplex:
    budget = _count("budget", budget, 0, MAX_BUDGET)
    seed, g2_cap = _integer("seed", seed), _integer("g2_cap", g2_cap)
    if not isinstance(allow_fold, bool):
        raise SpecError(f"allow_fold must be true or false, got {allow_fold!r}")
    rng = random.Random(seed)
    K = boundary_simplex()
    K._cache["singular"] = {}  # a 4-simplex boundary has sphere links only
    seeds = [K]
    forward = []
    note = ""
    stalled = False
    steps = 0
    while steps < budget:
        # A kind is listed in full only when the walk tries it; until
        # then its first site tells whether it has any.  The draws are
        # those over all kinds' full lists: the same sample of the
        # non-empty kinds, the same choice from each list tried.
        started = {}
        for kind in _WALK_KINDS:
            if kind == moves.EDGE_FOLD and (not allow_fold or _singular_map(K)):
                continue  # folds are asked for, and start from spheres
            sites = iter(moves.MOVES[kind].sites(K))
            first = next(sites, None)
            if first is not None:
                started[kind] = (first, sites)
        progressed = False
        for kind in rng.sample(sorted(started), k=len(started)):
            first, rest = started[kind]
            move = moves.MOVES[kind]
            values = dict(zip(move.inputs, rng.choice([first, *rest])))
            if kind == moves.EDGE_EXPAND:
                values["u_side"] = rng.randrange(2)
            try:
                K2, rec = move.construct(K, values)
            except PseudoformError:
                continue
            if _scope_update(K, K2, rec, g2_cap) is None:
                continue
            K = K2
            forward.append((0, rec))
            progressed = True
            break
        if not progressed:
            stalled = True
            note = f"stalled after {steps} of {budget} moves"
            break
        steps += 1
    spec = GeneratorSpec(
        RANDOM_MOVES,
        (
            ("seed", seed),
            ("budget", budget),
            ("allow_fold", allow_fold),
            ("g2_cap", g2_cap),
        ),
    )
    return GeneratedComplex(
        spec, K, reducer._trace(K, seeds, forward), stalled=stalled, note=note
    )


def generate(spec: GeneratorSpec) -> GeneratedComplex:
    """Build the complex a spec describes, with a replayable trace."""
    if not isinstance(spec, GeneratorSpec):
        raise SpecError(f"generate wants a GeneratorSpec, got {spec!r}")
    if not isinstance(spec.params, tuple) or not all(
            isinstance(p, tuple) and len(p) == 2 for p in spec.params):
        raise SpecError(f"spec parameters must be (key, value) pairs, got {spec.params!r}")
    if spec.kind == BOUNDARY_SIMPLEX:
        K = boundary_simplex()
        return GeneratedComplex(spec, K, reducer._trace(K, [K], []))
    if spec.kind == STACKED_SPHERE:
        return _gen_stacked(spec.get("blocks"), seed=DEFAULT_SEED)
    if spec.kind == CROSS_POLYTOPE:
        K = cross_polytope()
        rep = reducer.reduce_complex(K)
        if not rep.accepted:  # pragma: no cover - fixed input
            raise MoveError(f"cross-polytope failed to reduce: {rep.reason}")
        return GeneratedComplex(spec, K, rep.trace)
    if spec.kind == RANDOM_MOVES:
        return _gen_random(
            spec.get("seed"),
            spec.get("budget"),
            spec.get("allow_fold"),
            spec.get("g2_cap"),
        )
    raise SpecError(f"unknown generator kind {spec.kind!r}")
