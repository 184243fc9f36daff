"""Command-line interface.

Subcommands operate on facet-list files (one facet per line, labels
separated by spaces, ``#`` starts a comment line).  Exit codes: 0 for
a positive outcome, 1 when the requested property fails to hold or an
operation is rejected, 2 for malformed input or arguments, or a file
that cannot be read or written.

The environment variable ``PSEUDOFORM_SEED`` overrides the default
random seed used by ``rigidity`` and by ``gen RandomMoves(...)`` when
no explicit seed is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import generators, io, moves, reducer, rigidity
from .complexes import _link_shapes, find_isomorphism, total_g2, validate_normal
from .defaults import DEFAULT_SEED
from .errors import (
    IsomorphismInconclusive,
    MoveError,
    PseudoformError,
    ReplayError,
)

OK = 0
FALSE = 1
MALFORMED = 2


def _fail(msg: str, code: int) -> int:
    print(msg, file=sys.stderr)
    return code


class _WriteFailed(Exception):
    """An output file could not be written; the message is its path."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError:
        raise _WriteFailed(path) from None


def _env_seed() -> Optional[int]:
    raw = os.environ.get("PSEUDOFORM_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"PSEUDOFORM_SEED={raw!r} is not an integer") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------


def _cmd_validate(args) -> int:
    K = io.load_complex(args.file)
    rep = validate_normal(K)
    payload = {
        "verdict": rep.verdict,
        "singular": [[v, cls.kind] for v, cls in rep.singular_vertices],
        "summary": rep.summary(),
    }
    _emit(args, payload, rep.summary())
    return OK if rep.is_normal_closed else FALSE


def _cmd_fvector(args) -> int:
    K = io.load_complex(args.file)
    fv = K.f_vector()
    payload = {
        "f": list(fv.as_tuple()),
        "g2": fv.g2,
        "g3": fv.g3,
    }
    _emit(args, payload, str(fv))
    return OK


def _cmd_links(args) -> int:
    K = io.load_complex(args.file)
    rows, shapes = [], _link_shapes(K)
    for v in sorted(K.vertices):
        cls = shapes[v][3]
        if cls is None:
            rows.append((v, "not-a-surface", None))
        else:
            rows.append((v, cls.kind, cls.euler_characteristic))
    payload = {
        "links": [
            {"vertex": v, "kind": k, "euler_characteristic": c}
            for v, k, c in rows
        ]
    }
    text = "\n".join(
        f"vertex {v}: {k}" + (f" chi={c}" if c is not None else "")
        for v, k, c in rows
    )
    _emit(args, payload, text)
    return OK


def _cmd_missing(args) -> int:
    K = io.load_complex(args.file)
    tris = [tuple(sorted(t)) for t in K.missing_faces(2)]
    tets = [tuple(sorted(t)) for t in K.missing_faces(3)]
    payload = {
        "triangles": [list(t) for t in tris],
        "tetrahedra": [list(t) for t in tets],
    }
    lines = [f"triangle {' '.join(map(str, t))}" for t in tris]
    lines += [f"tetrahedron {' '.join(map(str, t))}" for t in tets]
    _emit(args, payload, "\n".join(lines) if lines else "none")
    return OK


def _ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _psi(text: str) -> dict:
    out = {}
    try:
        for tok in text.split(","):
            a, b = tok.split(":")
            out[int(a)] = int(b)
    except ValueError:
        raise ValueError(
            f"expected a:b,c:d,... vertex map, got {text!r}"
        ) from None
    return out


# Record keys read from a `move` flag of another name.
_FLAG_OF = {"vertices": "pair", "apex_u": "apexes", "apex_v": "apexes"}


def _move_values(args, move: moves.Move) -> dict:
    """The inputs and fresh labels of ``move`` given by the flags."""
    values = {}
    for p in move.params:
        if p.role == moves.DERIVED or p.key in values:
            continue
        flag = _FLAG_OF.get(p.key, p.key)
        text = getattr(args, flag)
        if text is None:
            if p.role == moves.INPUT:
                raise ValueError(f"move {args.kind} requires --{flag}")
        elif flag == "apexes":
            values["apex_u"], values["apex_v"] = _ints(text)
        elif flag == "pair":
            u, v = _ints(text)
            values[p.key] = (u, v)
        elif p.shape == moves.PSI:
            values[p.key] = _psi(text)
        elif p.shape is not int:
            values[p.key] = _ints(text)
        elif p.role == moves.INPUT:
            values[p.key] = int(text)
        else:  # one fresh label; --fresh may list more
            values[p.key] = _ints(text)[0]
    return values


def _cmd_move(args) -> int:
    K = io.load_complex(args.file)
    move = moves.MOVES[args.kind]
    values = _move_values(args, move)
    try:
        K2, rec = move.construct(K, values)
    except MoveError as e:
        return _fail(f"rejected: {e}", FALSE)
    print(f"applied {rec}", file=sys.stderr)
    out = io.format_facets(K2.facets)
    if args.output:
        _write(args.output, out)
    else:
        sys.stdout.write(out)
    return OK


def _cmd_reduce(args) -> int:
    K = io.load_complex(args.file)
    rep = reducer.reduce_complex(K)
    payload = {
        "input_class": rep.input_class,
        "reason": rep.reason,
        "rules": [list(map(str, r)) for r in rep.rule_log],
    }
    if rep.accepted:
        n_seeds, n_moves, n_folds = rep.trace.counts()
        payload.update(
            seeds=n_seeds, moves=n_moves, folds=n_folds, g2=rep.trace.claimed_g2
        )
    _emit(args, payload, rep.summary())
    if not rep.accepted:
        return FALSE
    if args.trace:
        _write(args.trace, reducer.format_trace(rep.trace))
        print(f"trace written to {args.trace}", file=sys.stderr)
    return OK


def _cmd_replay(args) -> int:
    with open(args.tracefile, "r", encoding="ascii") as fh:
        trace = reducer.parse_trace(fh.read())
    try:
        K = reducer.replay(trace)
    except ReplayError as e:
        return _fail(f"replay failed: {e}", FALSE)
    if args.against:
        target = io.load_complex(args.against)
        if K != target:
            return _fail(
                "replay result differs from the complex in "
                f"{args.against}", FALSE
            )
    fv = K.f_vector()
    g2 = total_g2(K)
    payload = {
        "f": list(fv.as_tuple()),
        "g2_total": g2,
        "matches": bool(args.against),
    }
    _emit(args, payload, f"replay ok {fv} total_g2={g2}")
    return OK


def _cmd_audit(args) -> int:
    K = io.load_complex(args.file)
    rep = reducer.audit_multi_singular(K, force=args.force)
    payload = {
        "applicable": rep.applicable,
        "defeated": rep.defeated,
        "facts": list(rep.facts),
        "violations": [[c, str(d)] for c, d in rep.violations],
    }
    _emit(args, payload, rep.summary())
    return OK if rep.defeated else FALSE


def _cmd_rigidity(args) -> int:
    K = io.load_complex(args.file)
    seed = args.seed
    if seed is None:
        env = _env_seed()
        seed = env if env is not None else DEFAULT_SEED
    verdict = rigidity.complex_rigidity(K, seed=seed, trials=args.trials)
    payload = {
        "vertices": verdict.graph_size[0],
        "edges": verdict.graph_size[1],
        "rank": verdict.rank,
        "expected_full_rank": verdict.expected_full_rank,
        "rigid": verdict.is_generically_rigid,
        "edge_excess": verdict.edge_excess,
    }
    _emit(args, payload, str(verdict))
    return OK if verdict.is_generically_rigid else FALSE


def _cmd_gen(args) -> int:
    spec = generators.parse_generator_spec(args.spec)
    env = _env_seed()
    if (
        env is not None
        and spec.kind == generators.RANDOM_MOVES
        and "seed=" not in args.spec
    ):
        spec = generators.GeneratorSpec(
            spec.kind,
            tuple(
                (k, env if k == "seed" else v) for k, v in spec.params
            ),
        )
    g = generators.generate(spec)
    if g.stalled:
        print(f"note: {g.note}", file=sys.stderr)
    if args.trace:
        _write(args.trace, reducer.format_trace(g.trace))
        print(f"trace written to {args.trace}", file=sys.stderr)
    text = io.format_facets(g.complex.facets)
    if args.json:
        fv = g.complex.f_vector()
        print(json.dumps({
            "spec": str(g.spec),
            "f": list(fv.as_tuple()),
            "g2_total": total_g2(g.complex),
            "facets": [sorted(F) for F in
                       sorted(g.complex.facets, key=sorted)],
        }, sort_keys=True))
    elif args.output:
        _write(args.output, text)
        print(f"written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return OK


def _cmd_iso(args) -> int:
    K1 = io.load_complex(args.file1)
    K2 = io.load_complex(args.file2)
    try:
        mapping = find_isomorphism(K1, K2)
    except IsomorphismInconclusive as e:
        return _fail(f"inconclusive: {e}", FALSE)
    if mapping is None:
        _emit(args, {"isomorphic": False}, "not isomorphic")
        return FALSE
    pairs = sorted(mapping.items())
    payload = {"isomorphic": True, "mapping": [list(p) for p in pairs]}
    _emit(args, payload, "isomorphic " + ",".join(f"{a}:{b}" for a, b in pairs))
    return OK


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pseudoform",
        description="Normal 3-pseudomanifolds: validation, moves, "
        "decomposition traces, rigidity and generators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        return sp

    sp = add("validate", _cmd_validate,
             help="check the normal closed pseudomanifold conditions")
    sp.add_argument("file")

    sp = add("fvector", _cmd_fvector, help="face counts and g-values")
    sp.add_argument("file")

    sp = add("links", _cmd_links, help="classify every vertex link")
    sp.add_argument("file")

    sp = add("missing", _cmd_missing,
             help="missing triangles and tetrahedra")
    sp.add_argument("file")

    sp = add("move", _cmd_move, help="apply one move and print the result")
    sp.add_argument("kind", choices=list(moves.ALL_KINDS))
    sp.add_argument("file")
    sp.add_argument("--edge", help="u,v")
    sp.add_argument("--triangle", help="a,b,c")
    sp.add_argument("--facet", help="a,b,c,d")
    sp.add_argument("--tetra", help="a,b,c,d (missing tetrahedron)")
    sp.add_argument("--vertex", help="single label")
    sp.add_argument("--pair", help="u,v (two-facets contraction)")
    sp.add_argument("--cycle", help="link cycle walk a,b,c,...")
    sp.add_argument("--u-side", type=int, default=0, choices=(0, 1))
    sp.add_argument("--apexes", help="two fresh labels p,q")
    sp.add_argument("--fresh", help="fresh label(s), comma separated")
    sp.add_argument("--sigma1", help="facet a,b,c,d")
    sp.add_argument("--sigma2", help="facet a,b,c,d")
    sp.add_argument("--psi", help="vertex map a:x,b:y,...")
    sp.add_argument("-o", "--output", help="write facets to a file")

    sp = add("reduce", _cmd_reduce,
             help="decompose into boundary-4-simplex seeds")
    sp.add_argument("file")
    sp.add_argument("--trace", help="write the construction trace here")

    sp = add("replay", _cmd_replay, help="re-run a construction trace")
    sp.add_argument("tracefile")
    sp.add_argument("--against",
                    help="require the result to equal this facet file")

    sp = add("audit-g", _cmd_audit,
             help="audit a claimed g2=4 complex with many singular vertices")
    sp.add_argument("file")
    sp.add_argument("--force", action="store_true",
                    help="run the rule battery even if the claim already fails")

    sp = add("rigidity", _cmd_rigidity,
             help="generic rigidity of the 1-skeleton in dimension 4")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trials", type=int, default=rigidity.DEFAULT_TRIALS)

    sp = add("gen", _cmd_gen, help="generate a complex from a spec, e.g. "
             "StackedSphere(4) or RandomMoves(seed=7,budget=30)")
    sp.add_argument("spec")
    sp.add_argument("-o", "--output", help="write facets to a file")
    sp.add_argument("--trace", help="write the construction trace here")

    sp = add("iso", _cmd_iso, help="search for a vertex bijection")
    sp.add_argument("file1")
    sp.add_argument("file2")

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except _WriteFailed as e:
        return _fail(f"cannot write {e}", MALFORMED)
    except BrokenPipeError:
        # the reader is gone (``| head``): drop what is buffered, or exiting fails too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("cannot write standard output: broken pipe", MALFORMED)
    except OSError as e:
        return _fail(f"cannot read {e.filename}", MALFORMED)
    except (PseudoformError, ValueError) as e:
        return _fail(f"malformed input: {e}", MALFORMED)


if __name__ == "__main__":
    sys.exit(main())
