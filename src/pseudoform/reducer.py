"""Decomposition of admissible complexes into boundary-4-simplex seeds.

``reduce_complex`` accepts a normal closed complex that is either a
union of spheres with g2 at most 9 or has exactly two projective-plane
vertices and g2 in {3, 4}, and dismantles it in one loop over a stack
of pieces.  A piece splits at the first missing tetrahedron that the
split's one precondition, ``_split_check``, accepts: every corner
separates its link, and the cut along its four triangles leaves two
sides that share only the tetrahedron.  Otherwise the first rule of
its class with a usable site takes one step.  A sphere undoes a
bistellar 1-move, then an edge expansion, then a two-facets
contraction; a two-singular piece undoes an edge fold, then an edge
expansion at a singular vertex; a stacked piece always splits.  Each
step re-applies a forward move that may undo it and checks that it
reproduces the previous state bit for bit, so the emitted
:class:`ConstructionTrace` replays to the exact input, labels and all.

Trace file format (bit-exact round trip):

    trace seeds=<n> result=<f0>,<f1>,<f2>,<f3> g2=<total>
    seed <index>
    <v0> <v1> <v2> <v3>
    ...
    end
    move component=<tag> kind=<Kind> <key>=<value> ... g2_delta=<d>

``audit_multi_singular`` is the falsifier side: it takes a complex
purported to have g2 = 4 with more than two singular vertices and
reports every structural rule such a complex would have to break.
"""

from __future__ import annotations

import ast
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import moves
from . import surfaces
from .complexes import (
    NormalityReport,
    SimplicialComplex,
    _as_complex,
    _normality,
    _vertex_link,
    total_g2,
    validate_normal,
)
from .errors import (
    MoveError,
    PseudoformError,
    ReplayError,
    TraceFormatError,
)
from .surfaces import RP2


# ---------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionTrace:
    """Seeds plus forward moves plus the claimed final tallies.

    ``forward_moves`` holds (component tag, record) pairs; the tag
    names the input component the move belongs to and is purely
    informational, the records themselves pin down where they act.
    """

    seeds: tuple
    forward_moves: tuple
    claimed_fcounts: tuple  # (f0, f1, f2, f3) of the replayed result
    claimed_g2: int  # sum of per-component g2

    def counts(self) -> "tuple[int, int, int]":
        kinds = [rec.kind for _, rec in self.forward_moves]
        return (
            len(self.seeds),
            len(kinds),
            kinds.count(moves.EDGE_FOLD),
        )

    def summary(self) -> str:
        n_seeds, n_moves, n_folds = self.counts()
        f = ",".join(str(x) for x in self.claimed_fcounts)
        return (
            f"seeds={n_seeds} moves={n_moves} folds={n_folds} "
            f"result=({f}) g2={self.claimed_g2}"
        )


def _face_counts(K: SimplicialComplex) -> tuple:
    return tuple(len(K.faces(d)) for d in range(4))


def _trace(K: SimplicialComplex, seeds, forward) -> ConstructionTrace:
    """The trace that builds ``K`` from ``seeds`` by the ``forward``
    (component tag, record) pairs."""
    return ConstructionTrace(tuple(seeds), tuple(forward), _face_counts(K), total_g2(K))


def _encode_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return "(" + ",".join(_encode_value(x) for x in v) + ")"
    raise TraceFormatError(f"cannot encode parameter value {v!r}")


_INT = "(?:0|-?[1-9][0-9]*)"


def _pattern(shape) -> str:
    """The canonical text of a value of a schema shape, as a regex."""
    if shape is bool:
        return "true|false"
    if shape is int:
        return _INT
    if shape == moves.CYCLE:
        return rf"\({_INT}(?:,{_INT}){{2,}}\)"
    return r"\(" + ",".join(_pattern(s) for s in shape) + r"\)"


def _decode_value(line: int, key: str, text: str, shape):
    """Decode the value of ``key`` on trace line ``line``: it must be
    written canonically and have the schema's shape."""
    if re.fullmatch(_pattern(shape), text):
        try:
            return text == "true" if shape is bool else ast.literal_eval(text)
        except SyntaxError:  # an integer too long to convert
            pass
    raise TraceFormatError(f"line {line}: bad {key} value {text!r}")


def format_trace(trace: ConstructionTrace) -> str:
    if not isinstance(trace, ConstructionTrace):
        raise TraceFormatError(f"format_trace wants a ConstructionTrace, got {trace!r}")
    lines = []
    f = ",".join(str(x) for x in trace.claimed_fcounts)
    lines.append(
        f"trace seeds={len(trace.seeds)} result={f} g2={trace.claimed_g2}"
    )
    for i, seed in enumerate(trace.seeds):
        lines.append(f"seed {i}")
        for facet in sorted(tuple(sorted(F)) for F in seed.facets):
            lines.append(" ".join(str(x) for x in facet))
        lines.append("end")
    for tag, rec in trace.forward_moves:
        parts = [f"move component={tag}", f"kind={rec.kind}"]
        parts += [f"{k}={_encode_value(v)}" for k, v in rec.params]
        parts.append(f"g2_delta={rec.g2_delta}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> ConstructionTrace:
    if not isinstance(text, str):
        raise TraceFormatError(f"parse_trace wants the trace as text, got {text!r}")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("trace "):
        raise TraceFormatError("missing 'trace' header line")
    header = {}
    for tok in lines[0].split()[1:]:
        if "=" not in tok:
            raise TraceFormatError(f"bad header token {tok!r}")
        k, v = tok.split("=", 1)
        header[k] = v
    try:
        n_seeds = int(header["seeds"])
        fcounts = tuple(int(x) for x in header["result"].split(","))
        g2 = int(header["g2"])
    except (KeyError, ValueError):
        raise TraceFormatError(f"bad header {lines[0]!r}") from None
    if len(fcounts) != 4:
        raise TraceFormatError("result= wants four comma-separated counts")

    seeds = []
    forward = []
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("seed "):
            try:
                idx = int(line.split()[1])
            except (IndexError, ValueError):
                raise TraceFormatError(f"line {i + 1}: bad seed header") from None
            if idx != len(seeds):
                raise TraceFormatError(
                    f"line {i + 1}: seed {idx} out of order (expected {len(seeds)})"
                )
            i += 1
            facets = []
            while i < len(lines) and lines[i].strip() != "end":
                row = lines[i].split()
                try:
                    facets.append(tuple(int(x) for x in row))
                except ValueError:
                    raise TraceFormatError(
                        f"line {i + 1}: bad facet row {lines[i]!r}"
                    ) from None
                i += 1
            if i >= len(lines):
                raise TraceFormatError("seed block not closed with 'end'")
            i += 1  # skip 'end'
            try:
                seeds.append(SimplicialComplex.from_facets(facets))
            except PseudoformError as e:
                raise TraceFormatError(f"seed {idx}: {e}") from None
        elif line.startswith("move "):
            toks = line.split()[1:]
            pairs = []
            for tok in toks:
                if "=" not in tok:
                    raise TraceFormatError(f"line {i + 1}: bad token {tok!r}")
                k, v = tok.split("=", 1)
                pairs.append((k, v))
            keys = [k for k, _ in pairs]
            if keys[:2] != ["component", "kind"] or keys[-1] != "g2_delta":
                raise TraceFormatError(
                    f"line {i + 1}: move wants component, kind, ..., g2_delta"
                )
            kind = pairs[1][1]
            if kind not in moves.MOVES:
                raise TraceFormatError(f"line {i + 1}: unknown kind {kind!r}")
            schema = moves.MOVES[kind].params
            if keys[2:-1] != [p.key for p in schema]:
                raise TraceFormatError(
                    f"line {i + 1}: {kind} wants the keys "
                    f"{', '.join(p.key for p in schema)}, in that order"
                )
            tag = _decode_value(i + 1, "component", pairs[0][1], int)
            delta = _decode_value(i + 1, "g2_delta", pairs[-1][1], int)
            params = tuple(
                (p.key, _decode_value(i + 1, p.key, v, p.shape))
                for p, (_k, v) in zip(schema, pairs[2:-1])
            )
            forward.append((tag, moves.MoveRecord(kind, params, delta)))
            i += 1
        else:
            raise TraceFormatError(f"line {i + 1}: unexpected line {line!r}")
    if len(seeds) != n_seeds:
        raise TraceFormatError(
            f"header promised {n_seeds} seeds, found {len(seeds)}"
        )
    trace = ConstructionTrace(
        seeds=tuple(seeds),
        forward_moves=tuple(forward),
        claimed_fcounts=fcounts,
        claimed_g2=g2,
    )
    _require_canonical(text, trace)
    return trace


def _require_canonical(text: str, trace: ConstructionTrace) -> None:
    """Accept ``text`` only as ``format_trace`` writes ``trace``: one
    spelling per number (``seeds=01`` and ``g2=+3`` are out), facet
    rows sorted and distinct, single spaces, a final newline.  Names
    the first line that differs."""
    want = format_trace(trace)
    if text == want:
        return
    pairs = itertools.zip_longest(
        text.splitlines(keepends=True), want.splitlines(keepends=True)
    )
    for n, (got, exp) in enumerate(pairs, 1):
        if got != exp:
            raise TraceFormatError(
                f"line {n}: not in canonical form: "
                f"{'end of text' if got is None else repr(got)}, expected "
                f"{'end of text' if exp is None else repr(exp)}"
            )


def _is_simplex_boundary(K: SimplicialComplex) -> bool:
    vs = sorted(K.vertices)
    if len(vs) != 5 or len(K.facets) != 5:
        return False
    return K.facets == frozenset(
        frozenset(q) for q in itertools.combinations(vs, 4)
    )


def _components_all_normal(K: SimplicialComplex) -> Optional[str]:
    for comp in K.connected_components():
        rep = validate_normal(comp)
        if not rep.is_normal_closed:
            return rep.summary()
    return None


def replay(trace: ConstructionTrace) -> SimplicialComplex:
    """Run a trace forward from its seeds, re-checking everything.

    Raises :class:`ReplayError` (with the failing move index) on any
    precondition failure, on an intermediate state that is not a
    disjoint union of normal closed complexes, and on a final tally
    that differs from the trace's claim.

    Each state is patched from its parent by the move's constructor
    (``SimplicialComplex._successor``).  Its singular map comes from
    ``moves.singular_after`` once the move's checks have passed: the
    kind's links rule reads it off the record and the parent's map,
    which is exact because every earlier state is normal.  EdgeFold,
    EdgeUnfold and HandleAdd, and an expansion at a singular vertex,
    whose rule declines, go to ``normal_update``, which rechecks only
    the faces the move touched.  So a step costs what it changes.
    """
    if not isinstance(trace, ConstructionTrace):
        raise ReplayError(f"replay wants a ConstructionTrace, got {trace!r}")
    if not trace.seeds:
        raise ReplayError("trace has no seeds")
    seen: set = set()
    for i, seed in enumerate(trace.seeds):
        if not _is_simplex_boundary(seed):
            raise ReplayError(f"seed {i} is not a boundary 4-simplex")
        if seen & seed.vertices:
            raise ReplayError(f"seed {i} reuses labels of earlier seeds")
        seen |= seed.vertices
    state = SimplicialComplex(
        F for seed in trace.seeds for F in seed.facets
    )
    singular: dict = {}  # boundary 4-simplices have sphere links only
    for i, (_tag, rec) in enumerate(trace.forward_moves):
        try:
            after = moves.apply_record(state, rec)
        except PseudoformError as e:
            raise ReplayError(
                f"forward move {i} ({rec.kind}) failed: {e}", index=i
            ) from e
        singular = moves.singular_after(state, after, rec, singular)
        state = after
        if singular is None:
            raise ReplayError(
                f"state after move {i} ({rec.kind}) is not normal: "
                f"{_components_all_normal(state)}",
                index=i,
            )
    if _face_counts(state) != tuple(trace.claimed_fcounts):
        raise ReplayError(
            f"replayed face counts {_face_counts(state)} differ from "
            f"claimed {tuple(trace.claimed_fcounts)}"
        )
    g2 = total_g2(state)
    if g2 != trace.claimed_g2:
        raise ReplayError(
            f"replayed g2 {g2} differs from claimed {trace.claimed_g2}"
        )
    return state


# ---------------------------------------------------------------------
# splitting at a missing tetrahedron
# ---------------------------------------------------------------------


def _split_check(K: SimplicialComplex, quad: frozenset) -> tuple:
    """A missing tetrahedron every corner of which separates its link,
    and cutting along whose four triangles leaves exactly two sides of
    facets that share only ``quad``: those two sides.

    A corner ``x`` separates when the boundary of ``quad - {x}`` cuts
    its link in two (``moves._link_sides``).  The facets are then cut
    along the four triangles of ``quad``: joined across every other
    triangle, they must fall into two sides.  A cut that leaves one
    side means a handle, which needs g2 >= 10.
    """
    moves._missing_tetrahedron_check(K, quad)
    moebius = [x for x in sorted(quad) if moves._link_sides(K, x, quad - {x}) is None]
    if moebius:
        raise MoveError(
            f"corners {moebius} of {sorted(quad)} have one-sided "
            "neighborhoods; this tetrahedron witnesses a fold, not a sum",
            details=tuple(moebius),
        )
    cut = {frozenset(t) for t in itertools.combinations(quad, 3)}

    def uncut_triangles(F):
        return [t for t in map(frozenset, itertools.combinations(F, 3)) if t not in cut]

    comp = surfaces._component_ids(sorted(K.facets, key=sorted), uncut_triangles)
    n_comp = max(comp.values()) + 1
    if n_comp == 1:
        raise MoveError(
            f"cutting along {sorted(quad)} does not disconnect: the gluing "
            "was a handle (g2 at least 10), not a connected sum"
        )
    if n_comp != 2:
        raise MoveError(
            f"cutting along {sorted(quad)} leaves {n_comp} pieces; "
            "the complex is not a normal pseudomanifold there"
        )
    sides = tuple(frozenset(F for F, c in comp.items() if c == s) for s in (0, 1))
    shared = frozenset().union(*sides[0]) & frozenset().union(*sides[1])
    if shared != quad:
        raise MoveError(
            f"split sides share vertices {sorted(shared)} beyond the "
            f"tetrahedron {sorted(quad)}"
        )
    return sides


def _iter_split_sites(K: SimplicialComplex) -> Iterator:
    """((tetra,), sides) for each missing tetrahedron ``_split_check``
    accepts, lazily, in the order of ``missing_faces``."""
    return moves._passing(_split_check, K, ((q,) for q in K.missing_faces(3)))


def split_at_missing_tetrahedron(
    K: SimplicialComplex,
    tetra: Iterable[int],
    fresh_base: Optional[int] = None,
) -> "tuple[SimplicialComplex, SimplicialComplex, moves.MoveRecord]":
    """Undo the connected sum glued along a missing tetrahedron.

    The one precondition is ``_split_check``; before it, each corner's
    link is classified (``moves._corner_links``), which refuses a link
    that is not a closed surface.  Returns the two summands, the
    second with the labels ``fresh_base`` to ``fresh_base + 3`` (unused
    in ``K``) on its copy of the tetrahedron, plus the ConnectedSum
    record that reassembles them.
    """
    quad = moves._face(tetra)
    if not all(isinstance(x, int) for x in quad):
        raise MoveError(f"expected a tetrahedron of integer labels, got {tetra!r}")
    if fresh_base is None:
        fresh_base = K.fresh_label()
    elif not isinstance(fresh_base, int) or isinstance(fresh_base, bool) or fresh_base < 0:
        raise MoveError(f"fresh_base must be a non-negative integer, got {fresh_base!r}")
    # the second summand is summed back onto K, so its copy of the
    # tetrahedron takes labels that are nowhere in K
    moves._require_absent_labels(K, range(fresh_base, fresh_base + 4))
    # A complex that is not normal may have a corner whose link is no
    # closed surface; classifying each link refuses it.
    moves._corner_links(K, quad)
    return _split(K, quad, *_split_check(K, quad), fresh_base)


def _split(
    K: SimplicialComplex, quad: frozenset, side_a: frozenset, side_b: frozenset,
    base: int,
) -> "tuple[SimplicialComplex, SimplicialComplex, moves.MoveRecord]":
    """The two summands of ``K`` on the sides ``_split_check`` gives, the
    copy of ``quad`` in the second relabelled from ``base`` on, and the
    record.  Each summand is patched from ``K``: the second rewrites
    only its facets at the corners of ``quad``.  ``_split_singular``
    gives their singular maps."""
    fresh = {x: base + i for i, x in enumerate(sorted(quad))}
    at_quad = {F for x in quad for F in K._facets_by_vertex()[x] if F in side_b}
    K1 = K._successor(side_b, (quad,))
    K2 = K._successor(
        side_a | at_quad,
        {frozenset(fresh.get(v, v) for v in F) for F in at_quad}
        | {frozenset(fresh.values())},
    )
    return K1, K2, moves._gluing_record(
        moves.CONNECTED_SUM, 0, quad, fresh.values(), fresh)


def _split_singular(
    K1: SimplicialComplex, rec: moves.MoveRecord, singular: dict,
) -> tuple:
    """The singular maps of the two halves ``_split`` made, the first
    ``K1``, from the map of the split piece and the record that glues
    them.

    The split check has passed, so both halves are normal: the two sides
    share only the tetrahedron, and the boundary of the triangle
    opposite each corner cuts its link in two, one part on each side,
    which the triangle closes up in its half.  The piece passed
    ``_classify_component``, so each corner's link is a sphere or RP^2.
    A singular vertex that is not a corner keeps its link in the half
    that holds its star.  A sphere corner is a sphere in both halves
    (Jordan-Schoenflies: both parts are discs).  An RP^2 corner is cut
    into a disc and a Moebius strip: the half whose link has Euler
    characteristic 2 gets the sphere, the other keeps RP^2.
    """
    fresh = dict(rec.get("psi"))
    maps: tuple = ({}, {})
    for v, cls in singular.items():
        if v not in fresh:
            maps[v not in K1.vertices][v] = cls
        elif sum((-1) ** (len(f) - 1) for f in _vertex_link(K1, v).faces) == 2:
            maps[1][fresh[v]] = cls
        else:
            maps[0][v] = cls
    return maps


# ---------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------

CLASS_STACKED = "StackedSphere"
CLASS_SPHERE = "SphereG2le9"
CLASS_TWO_SINGULAR = "TwoSingularG2_3or4"
CLASS_REJECTED = "Rejected"


@dataclass(frozen=True)
class ReduceReport:
    input_class: str
    reason: Optional[str]
    trace: Optional[ConstructionTrace]
    rule_log: tuple  # ((component tag, rule id, witness), ...)

    @property
    def accepted(self) -> bool:
        return self.input_class != CLASS_REJECTED

    def summary(self) -> str:
        if not self.accepted:
            return f"class={self.input_class} reason={self.reason}"
        return f"class={self.input_class} {self.trace.summary()}"


class _Rejection(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _singular_set(rep: NormalityReport) -> dict:
    return {v: cls for v, cls in rep.singular_vertices}


def _classify_component(
    K: SimplicialComplex, sing: Optional[dict]
) -> str:
    """Admission check for one component; returns its class.

    ``sing`` is the component's singular map, as ``moves.singular_after``
    gives it: None when the component is not normal closed.
    """
    if sing is None or not K.is_connected():
        raise _Rejection(
            f"not a normal closed pseudomanifold: {validate_normal(K).summary()}"
        )
    if not sing:
        g2 = total_g2(K)  # K is connected
        if g2 > 9:
            raise _Rejection(f"sphere component with g2={g2} > 9")
        return CLASS_STACKED if g2 == 0 else CLASS_SPHERE
    why = _singular_out_of_scope(K, sing)
    if why is not None:
        raise _Rejection(why)
    return CLASS_TWO_SINGULAR


def _singular_out_of_scope(K: SimplicialComplex, sing: dict) -> Optional[str]:
    """Why the component ``K`` with singular vertices ``sing`` is out of
    the reducer's and the walk's scope, or None when it has exactly two,
    both with projective-plane links, and g2 3 or 4.  ``K`` is connected,
    so its g2 is its total g2."""
    bad = sorted(v for v, cls in sing.items() if cls.kind != RP2)
    if bad:
        return f"singular vertices {bad} have links other than a projective plane"
    if len(sing) != 2:
        return f"{len(sing)} projective-plane vertices; only exactly two are in scope"
    g2 = total_g2(K)
    if g2 not in (3, 4):
        return f"two-singular component with g2={g2}; only 3 and 4 are in scope"
    return None


def _cycle_tuple(L: SimplicialComplex) -> tuple:
    """The vertices of the circle ``L`` in order, from its least vertex
    towards the smaller of that vertex's two neighbours.  The link of a
    contracted edge is a circle: the contraction checks it."""
    adj = L.adjacency
    walk = [min(adj)]
    nxt = min(adj[walk[0]])
    while nxt != walk[0]:
        walk.append(nxt)
        (nxt,) = adj[nxt] - {walk[-2]}
    return tuple(walk)


# Each class's rules, in the order they are tried: the rule id, the
# shrinking kind whose first usable site is taken, and a filter on its
# sites.  A stacked piece (no singular vertex, g2 = 0) is a stacked
# sphere by Walkup's lower bound; unless it is a boundary 4-simplex it
# has a missing tetrahedron, every corner of which separates its link,
# so it always splits first and needs no rule of its own.
_RULES = {
    CLASS_STACKED: (),
    CLASS_SPHERE: (
        ("bistellar-down-at-degree-three-edge", moves.BISTELLAR2, None),
        ("contract-link-condition-edge", moves.EDGE_CONTRACT, None),
        ("insert-through-missing-triangle", moves.TWO_FACETS_INSERT, None),
    ),
    CLASS_TWO_SINGULAR: (
        ("unfold-at-moebius-tetrahedron", moves.EDGE_UNFOLD, None),
        # an edge joining a singular vertex to a non-singular one
        ("contract-singular-incident-edge", moves.EDGE_CONTRACT,
         lambda sing, site: (site[0][0] in sing) != (site[0][1] in sing)),
    ),
}

# Why a piece none of its class's rules applies to is rejected.
_STUCK = {
    CLASS_STACKED: "stacked-range component with no split and no "
    "degree-four vertex",
    CLASS_SPHERE: "sphere with g2={g2} admits no bistellar 2-move, "
    "no link-condition contraction and no two-facets insertion",
    CLASS_TWO_SINGULAR: "two-singular component has no fold witness and "
    "no admissible contraction at a singular vertex",
}


# The forward moves that may undo each shrinking kind, as (kind, values)
# made from the state before the step and the step's record.
_UNDO = {
    moves.BISTELLAR2: lambda K, p: [
        (moves.BISTELLAR1, {"triangle": p["triangle"]})],
    # both sides of the cut link: the contraction does not record which
    # endpoint had which
    moves.EDGE_CONTRACT: lambda K, p: (
        (moves.EDGE_EXPAND, {
            "vertex": p["fresh"], "cycle": _cycle_tuple(K.link(p["edge"])),
            "apex_u": p["edge"][0], "apex_v": p["edge"][1], "u_side": side})
        for side in (0, 1)),
    moves.TWO_FACETS_INSERT: lambda K, p: [
        (moves.TWO_FACETS_CONTRACT, {
            "vertices": (p["apex_u"], p["apex_v"]), "fresh": p["vertex"]})],
    moves.EDGE_UNFOLD: lambda K, p: [
        (moves.EDGE_FOLD, {
            "sigma1": p["moebius_edge"] + p["split_pair"],
            "sigma2": p["moebius_edge"] + p["fresh"],
            "psi": tuple(zip(p["moebius_edge"] + p["split_pair"],
                             p["moebius_edge"] + p["fresh"]))})],
}


def _rebuild(
    before: SimplicialComplex, after: SimplicialComplex, rec: moves.MoveRecord
) -> moves.MoveRecord:
    """The forward record that turns ``after`` back into ``before``."""
    try:
        for kind, values in _UNDO[rec.kind](before, rec.param_dict()):
            rebuilt, forward = moves.MOVES[kind].construct(after, values)
            if rebuilt == before:
                return forward
    except PseudoformError:
        pass
    raise _Rejection(f"internal check failed: no forward move rebuilds "
                     f"the state before {rec.kind}")


def _apply_rule(
    rule: tuple, K: SimplicialComplex, sing: dict, first_label: int
) -> Optional[tuple]:
    """Apply ``rule`` at its first usable site, with fresh labels from
    ``first_label`` on.  Returns the smaller complex, the step's own
    record, the forward record that rebuilds ``K``, the site's inputs
    (the witness) and the next unused label; None when no site is
    usable."""
    _rule_id, kind, keep = rule
    move = moves.MOVES[kind]
    for site in move.sites(K):
        if keep is not None and not keep(sing, site):
            continue
        values = dict(zip(move.inputs, site))
        # the move's fresh keys take the next unused labels, in order
        labels = itertools.count(first_label)
        fresh = {
            p.key: next(labels) if p.shape is moves.LABEL
            else tuple(itertools.islice(labels, len(p.shape)))
            for p in move.params if p.role == moves.FRESH
        }
        after, rec = move.construct(K, {**values, **fresh})
        witness = site[0] if len(move.inputs) == 1 else tuple(values.values())
        return after, rec, _rebuild(K, after, rec), witness, next(labels)
    return None


def _reduce(pieces: list, next_label: int, rule_log: list) -> "tuple[list, list]":
    """Reduce (tag, component, singular map) triples to seeds.

    The singular map (see ``_classify_component``) is carried through
    every step.  A split gives both halves theirs by ``_split_singular``,
    which reads them off the split check; a rule step takes its map from
    ``moves.singular_after``, the kind's links rule or, for an unfold,
    ``normal_update`` on the faces the step touched.  Fresh
    labels count up from ``next_label``, and each rule applied is
    appended to ``rule_log``.  Returns (seeds, forward
    records in replay order).
    """
    seeds: list = []
    forward: list = []
    # The stack holds pieces still to reduce, as (tag, K, sing, records
    # undoing the steps taken on K so far), and, as a list, the records
    # a split piece owes the trace once both halves are reduced.  The
    # first half lies on top, so pieces reduce, and take their labels,
    # in depth-first order.
    stack: list = [(tag, K, sing, []) for tag, K, sing in reversed(pieces)]
    while stack:
        top = stack.pop()
        if isinstance(top, list):
            forward += top
            continue
        tag, K, sing, undo = top
        cls = _classify_component(K, sing)
        if _is_simplex_boundary(K):
            seeds.append(K)
            forward += reversed(undo)
            continue
        split = next(_iter_split_sites(K), None)
        if split is not None:
            (quad,), sides = split
            K1, K2, rec = _split(K, quad, *sides, next_label)
            sing1, sing2 = _split_singular(K1, rec, sing)
            next_label += 4
            rule_log.append((tag, "split-at-missing-tetrahedron", tuple(sorted(quad))))
            stack += [
                [(tag, rec), *reversed(undo)],
                (tag, K2, sing2, []),
                (tag, K1, sing1, []),
            ]
            continue
        for rule in _RULES[cls]:
            step = _apply_rule(rule, K, sing, next_label)
            if step is not None:
                break
        else:
            raise _Rejection(_STUCK[cls].format(g2=K.f_vector().g2))
        K2, rec, undo_rec, witness, next_label = step
        rule_log.append((tag, rule[0], witness))
        sing2 = moves.singular_after(K, K2, rec, sing)
        if sing2 is None:
            raise _Rejection(
                "reduction step produced an invalid complex: "
                f"{_components_all_normal(K2)}"
            )
        undo.append((tag, undo_rec))
        stack.append((tag, K2, sing2, undo))
    return seeds, forward


def reduce_complex(K: SimplicialComplex) -> ReduceReport:
    """Decompose a complex into boundary-4-simplex seeds with a trace.

    Accepts disjoint unions; components reduce independently and the
    trace tags each move with its component index.  Returns a Rejected
    report when the input is outside the supported classes or a
    guaranteed move is unexpectedly unavailable; raises
    :class:`PseudoformError` only when ``K`` is not a complex.
    """
    components = _as_complex(K, "reduce_complex").connected_components()
    if not components:
        return ReduceReport(
            CLASS_REJECTED, "empty complex", None, ()
        )
    try:
        classes = []
        sings = []
        for comp in components:
            rep = validate_normal(comp)
            sing = _singular_set(rep) if rep.is_normal_closed else None
            classes.append(_classify_component(comp, sing))
            sings.append(sing)
    except _Rejection as e:
        return ReduceReport(CLASS_REJECTED, e.reason, None, ())

    rule_log: list = []
    try:
        seeds, forward = _reduce(
            [(tag, *piece) for tag, piece in enumerate(zip(components, sings))],
            K.fresh_label(), rule_log,
        )
    except _Rejection as e:
        return ReduceReport(CLASS_REJECTED, e.reason, None, tuple(rule_log))

    trace = _trace(K, seeds, forward)
    if CLASS_TWO_SINGULAR in classes:
        input_class = CLASS_TWO_SINGULAR
    elif any(c == CLASS_SPHERE for c in classes):
        input_class = CLASS_SPHERE
    else:
        input_class = CLASS_STACKED
    return ReduceReport(input_class, None, trace, tuple(rule_log))


# ---------------------------------------------------------------------
# the nonexistence audit
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Outcome of auditing a claimed g2=4, many-singular complex.

    ``applicable`` records whether the complex really measured up to
    the claim; when it does not, ``facts`` explains what was measured
    instead and the claim is already refuted.  ``violations`` lists
    every structural rule the (possibly force-audited) complex breaks.
    """

    applicable: bool
    facts: tuple
    violations: tuple

    @property
    def defeated(self) -> bool:
        return (not self.applicable) or bool(self.violations)

    def summary(self) -> str:
        parts = []
        if not self.applicable:
            parts.append("claim refuted by measurement: " + "; ".join(self.facts))
        for code, detail in self.violations:
            parts.append(f"violated {code}: {detail}")
        if not parts:
            parts.append("no violation found")
        return "\n".join(parts)


def _note(facts: list, fact: str) -> None:
    if fact not in facts:
        facts.append(fact)


def _strip_to_reduced_form(K: SimplicialComplex, facts: list) -> SimplicialComplex:
    """Undo facet subdivisions and separable sums before auditing."""
    while True:
        subs = moves.unsubdividable_vertices(K)
        if subs:
            K, _ = moves.facet_unsubdivide(K, subs[0][0])
            continue
        for quad in K.missing_faces(3):
            try:
                sides = _split_check(K, quad)
            except MoveError as e:
                # the corner check names the one-sided corners; the
                # cut's errors name none
                if e.details is None:
                    _note(facts, f"unsplittable missing tetrahedron: {e}")
                elif len(e.details) < 4:
                    _note(
                        facts,
                        f"missing tetrahedron {sorted(quad)} mixes separating "
                        "and one-sided corners",
                    )
                continue
            K1, K2, _rec = _split(K, quad, *sides, K.fresh_label())

            def n_sing(C):
                return len(
                    [v for v, _ in validate_normal(C).singular_vertices]
                )
            K = K1 if n_sing(K1) >= n_sing(K2) else K2
            break
        else:
            return K


def audit_multi_singular(
    K: SimplicialComplex, force: bool = False
) -> AuditReport:
    """Audit a complex claimed to have g2 = 4 and > 2 singular vertices.

    Measures the claim first; a mismatch refutes it outright (reported
    in ``facts``).  With ``force`` the structural rule battery runs
    regardless, which is how near-miss candidates are probed in tests.
    The rules are checked on the reduced form of the complex (facet
    subdivisions undone, separable connected sums split off).
    """
    facts: list = []
    rep = _normality(_as_complex(K, "audit_multi_singular"))
    if not rep.is_normal_closed:
        facts.append(f"not a normal closed pseudomanifold ({rep.summary()})")
        return AuditReport(False, tuple(facts), ())
    sing = _singular_set(rep)
    g2 = K.f_vector().g2
    non_rp2 = sorted(v for v, cls in sing.items() if cls.kind != RP2)
    if g2 != 4:
        facts.append(f"measured g2={g2}, not 4")
    if len(sing) <= 2:
        facts.append(f"measured {len(sing)} singular vertices, not more than 2")
    if non_rp2:
        facts.append(f"singular links at {non_rp2} are not projective planes")
    applicable = not facts
    if not applicable and not force:
        return AuditReport(False, tuple(facts), ())

    K = _strip_to_reduced_form(K, facts)
    rep = validate_normal(K)
    sing = set(_singular_set(rep))
    nonsing = sorted(K.vertices - sing)
    violations: list = []

    for v in nonsing:
        for t in _vertex_link(K, v).holes:
            violations.append(
                ("missing-triangle-in-nonsingular-link", (v, tuple(sorted(t))))
            )
    for e in sorted(K.faces(1), key=sorted):
        d = K.edge_degree(e)
        if d < 4:
            violations.append(
                ("edge-degree-below-four", (tuple(sorted(e)), d))
            )
    for e in sorted(K.faces(1), key=sorted):
        a, b = sorted(e)
        if a in sing and b in sing:
            continue
        x, y = (a, b) if a not in sing else (b, a)
        diff = (K.neighbors(x) & K.neighbors(y)) - frozenset().union(*K._link_cells(e))
        if not diff:
            violations.append(
                ("empty-common-link-difference", (x, y))
            )
    if len(sing) == 8 and len(K.vertices) < 10:
        violations.append(
            ("too-few-vertices-for-eight-singular", len(K.vertices))
        )
    for a in nonsing:
        d = len(K.neighbors(a))
        if d > 8:
            violations.append(("nonsingular-degree-above-eight", (a, d)))
    for e in sorted(K.faces(1), key=sorted):
        a, b = sorted(e)
        if a not in sing and b not in sing:
            violations.append(
                ("edge-between-nonsingular-vertices", (a, b))
            )
    for t in sorted(sing):
        nbrs = [x for x in sorted(K.neighbors(t)) if x not in sing]
        if len(nbrs) > 1:
            violations.append(
                ("singular-vertex-with-multiple-nonsingular-neighbors",
                 (t, tuple(nbrs)))
            )
    return AuditReport(applicable, tuple(facts), tuple(violations))
