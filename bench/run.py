"""pseudoform benchmark: time to certify (reduce), to verify (replay),
and the generators, validation, rigidity and isomorphism around them.

Run from the repository root:

    python3 bench/run.py --workload staircase-ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
untraced for a third of the time, then wraps the package's public
functions and reports per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
Without ``--workload`` every workload runs, each in its own process.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("staircase-ladder", "fold-ladder", "walk-corpus")
SETUP_REPEATS = 15
# The seed whose outputs bench/expected.json holds digests of.
DEFAULT_SEED = 1729

# Per-layer metrics reported with --trace 1; every workload reports
# every key.  A time is listed only for functions that run on all three
# workloads, so none reads a constant zero.  Counts of items returned
# say what the program produced, not what it cost, so they are left to
# the results file, which holds the full per-function table.
LAYERS = ("io", "complexes", "surfaces", "moves", "generators", "reducer",
          "rigidity", "cli")
TIMED_LAYERS = ("complexes", "surfaces", "moves", "generators", "reducer",
                "rigidity")
FUNC_METRICS = {
    "complexes.validate_normal": ("calls", "self_s"),
    "complexes.SimplicialComplex.link": ("calls", "self_s"),
    "complexes.SimplicialComplex.init": ("calls", "self_s"),
    "complexes.SimplicialComplex.connected_components": ("calls", "self_s"),
    "complexes.SimplicialComplex.missing_faces": ("calls", "self_s"),
    "complexes.total_g2": ("calls", "self_s"),
    "complexes.find_isomorphism": ("calls", "self_s"),
    "surfaces.Surface.init": ("calls", "self_s"),
    "surfaces.Surface.classify": ("calls", "self_s"),
    "surfaces.cycle_cut": ("calls", "self_s"),
    "surfaces.missing_triangle_neighborhood": ("calls", "self_s"),
    "moves.apply_record": ("calls", "self_s", "failed"),
    "generators.generate": ("calls",),
    "generators.admissible_folds": ("calls",),
    "reducer.reduce_complex": ("calls", "s"),
    "reducer.replay": ("calls", "s"),
    "reducer.parse_trace": ("s",),
    "reducer.format_trace": ("s",),
    "reducer.split_at_missing_tetrahedron": ("calls", "self_s"),
    "rigidity.rigidity_rank": ("calls", "self_s"),
    "io.load_complex": ("calls",),
    "cli.main": ("calls",),
}
MOVE_CONSTRUCTORS = (
    "bistellar_one", "bistellar_two", "contract_edge", "expand_edge",
    "insert_two_facets", "contract_two_facets", "connected_sum",
    "connected_sum_in", "handle_addition", "edge_fold", "edge_unfold",
    "facet_subdivide", "facet_unsubdivide",
)
MOVE_ENUMERATORS = (
    "bistellar_one_sites", "bistellar_two_sites", "contractible_edges",
    "insertion_sites", "contraction_pair_sites", "unsubdividable_vertices",
    "detect_unfold",
)
# Counters read off returned values at the layer boundary.
HOOKS = {
    "reducer.reduce_complex": lambda rep: {"reducer.steps": len(rep.rule_log)},
    "generators.generate": lambda g: {
        "generators.moves_accepted": len(g.trace.forward_moves)},
    "rigidity.rigidity_rank": lambda v: {
        "rigidity.trials": v.trials,
        "rigidity.matrix_cells":
            v.trials * v.graph_size[1] * v.ambient_dim * v.graph_size[0]},
}


def _git_sha() -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter, as measured
    inside that interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import pseudoform.cli; "
            "print(time.perf_counter() - t)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True, env=env)
    return float(out.stdout.strip().splitlines()[-1])


def _slope(ns, ts) -> float:
    """Least-squares slope of log t against log n."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in ts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def _run_passes(wl, h, seconds: float) -> int:
    """Repeat passes over the workload's inputs for ``seconds``.

    The first pass always completes; a later pass may stop between
    inputs.  Returns the number of passes started.
    """
    deadline = time.perf_counter() + seconds
    n_items = len(wl.input_ids)
    passes = 0
    while True:
        for i in range(n_items):
            if passes and time.perf_counter() >= deadline:
                return passes + 1
            wl.run_item(h, i, passes)
        passes += 1
        if time.perf_counter() >= deadline:
            return passes


def _ladder_report(wl, h) -> dict:
    """Per-rung median times and the scaling exponent per op."""
    rungs = getattr(wl, "rungs", None)
    if not rungs:
        return {}
    med = h.medians()
    ns = [r[0] for r in rungs]
    ids = wl.input_ids
    out = {}
    for op in ("gen", "admissible_folds", "validate", "reduce", "replay",
               "rigidity", "iso"):
        ts = [med.get((iid, op)) for iid in ids]
        if any(t is None for t in ts):
            continue
        for i, t in enumerate(ts):
            out[f"{op}.rung{i}_s"] = t
        out[f"{op}.scaling_exp"] = _slope(ns, ts)
    out["rungs"] = ns
    return out


def end_to_end(h, setup_s: float) -> "tuple[dict, dict]":
    """The end-to-end metrics plus notes on how they were formed."""
    metrics = {"setup_s": (setup_s, "s")}
    for name, t in h.metric_totals().items():
        metrics[name] = (t, "s")
    lat = h.certify_latencies()
    n = len(lat)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") \
        if n > 1 else [lat[0] if lat else 0.0] * 9
    metrics["certify_p50_ms"] = (deciles[4] * 1e3, "ms")
    metrics["certify_p90_ms"] = (deciles[8] * 1e3, "ms")
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    notes = {
        "certify_samples": n,
        # highest percentile with at least ten samples above it
        "certify_resolved_pct": (math.floor(100 * (1 - 10 / n))
                                 if n >= 10 else None),
        # an inconclusive isomorphism search counts as an error here,
        # but not in the run's failed count (see bench/README.md)
        "error_rate": (h.failed + h.n_inconclusive) / h.attempted,
        "error_rate_base": {"failed": h.failed,
                            "inconclusive": h.n_inconclusive,
                            "attempted": h.attempted},
    }
    return metrics, notes


def _ratio(num, den) -> float:
    """num / den, and 0 where the base is 0 (the layer did not run)."""
    return num / den if den else 0.0


def layer_metrics(stats, within, edges, counters) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""

    def get(name, field):
        st = stats.get(name)
        return getattr(st, field) if st is not None else 0

    def under(root, name, i=0):
        return within.get((root, name), (0, 0.0, 0))[i]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (sum(
            st.calls for n, st in stats.items()
            if n.startswith(layer + ".")), "count")
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (sum(
            st.self_s for n, st in stats.items()
            if n.startswith(layer + ".")), "s")
    for name, fields in FUNC_METRICS.items():
        for field in fields:
            unit = "s" if field in ("s", "self_s") else "count"
            out[f"{name}.{field}"] = (get(name, field), unit)
    for fn in MOVE_CONSTRUCTORS:
        for field in ("calls", "failed"):
            out[f"moves.{fn}.{field}"] = (get(f"moves.{fn}", field), "count")
    for fn in MOVE_ENUMERATORS:
        out[f"moves.{fn}.calls"] = (get(f"moves.{fn}", "calls"), "count")

    gen = "generators.generate"
    accepted = counters.get("generators.moves_accepted", 0)
    sites = sum(under(gen, f"moves.{fn}", 2) for fn in MOVE_ENUMERATORS) \
        + under(gen, "generators.admissible_folds", 2)
    attempts = sum(under(gen, f"moves.{fn}") for fn in MOVE_CONSTRUCTORS)
    out["generators.site_yield"] = (_ratio(accepted, sites), "ratio")
    out["generators.attempt_yield"] = (_ratio(accepted, attempts), "ratio")
    out["generators.admissible_folds.yield"] = (_ratio(
        get("generators.admissible_folds", "returned"),
        edges.get(("generators.admissible_folds", "moves.edge_fold"), 0)),
        "ratio")

    red, rep = "reducer.reduce_complex", "reducer.replay"
    steps = counters.get("reducer.steps", 0)
    out["reducer.steps"] = (steps, "count")
    out["reduce_complex.validations_per_step"] = (_ratio(
        under(red, "complexes.validate_normal"), steps), "ratio")
    out["replay.validations_per_step"] = (_ratio(
        under(rep, "complexes.validate_normal"),
        under(rep, "moves.apply_record")), "ratio")
    # the reducer's loop examines a missing tetrahedron by building all
    # four corner neighborhoods
    examined = edges.get((red, "surfaces.missing_triangle_neighborhood"), 0) / 4
    out["reducer.split_yield"] = (_ratio(
        edges.get((red, "reducer.split_at_missing_tetrahedron"), 0),
        examined), "ratio")
    out["reducer.replay.validate_share"] = (_ratio(
        under(rep, "complexes.validate_normal", 1), get(rep, "s")), "ratio")
    out["rigidity.trials"] = (counters.get("rigidity.trials", 0), "count")
    out["rigidity.matrix_cells"] = (
        counters.get("rigidity.matrix_cells", 0), "count")
    return out


def per_layer(passes: list, overhead: float) -> dict:
    """Medians over the traced passes of the per-pass layer metrics."""
    each = [layer_metrics(*p) for p in passes]
    out = {k: (statistics.median(m[k][0] for m in each), u)
           for k, (_v, u) in each[0].items()}
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def traced_run(wl, expected, seconds: float, tag: str):
    """Untraced for a third of ``seconds``, then traced whole passes.

    Returns the untraced and traced harnesses, the per-layer metrics and
    the facts for the results file.
    """
    import pseudoform
    import workloads
    from tracer import Tracer

    base = workloads.Harness(expected)  # the base of the overhead ratio
    passes_untraced = _run_passes(wl, base, seconds / 3)
    tracer = Tracer(hooks=HOOKS)
    h = workloads.Harness(expected, tracer)
    tracer.install(pseudoform)
    passes = []
    deadline = time.perf_counter() + seconds * 2 / 3
    try:
        while not passes or time.perf_counter() < deadline:
            tracer.reset()
            tracer.keep_spans = not passes
            tracer.recording = True
            for i in range(len(wl.input_ids)):
                wl.run_item(h, i, len(passes))
            tracer.recording = False
            passes.append((tracer.stats, tracer.within, tracer.edges,
                           tracer.counters))
    finally:
        tracer.recording = False
        tracer.uninstall()
    bad = tracer.unrestored()
    if bad:
        h.failed += 1
        h.failure_counts[("-", "trace", f"not restored: {bad}")] = 1
    overhead = sum(h.op_totals().values()) / sum(base.op_totals().values())
    spans_path = OUT / f"spans-{tag}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(
                ("id", "name", "start", "end", "parent", "input"), span)))
                + "\n")
    facts = {
        "passes_untraced": passes_untraced,
        "passes_traced": len(passes),
        "wrapped_bindings": tracer.wrapped_bindings,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
        "all_functions": {
            name: {f: getattr(st, f) for f in st.__slots__}
            for name, st in sorted(passes[0][0].items())},
        "callers": {f"{a} -> {b}": n for (a, b), n in sorted(
            passes[0][2].items(), key=lambda kv: -kv[1])},
    }
    return base, h, per_layer(passes, overhead), facts


def run_workload(args) -> int:
    t_start = time.perf_counter()
    os.environ.pop("PSEUDOFORM_SEED", None)
    if not (SRC / "pseudoform" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_times = [_import_seconds() for _ in range(SETUP_REPEATS)]

    import pseudoform.cli  # noqa: F401 - loads every layer
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    prep_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(args.seed, args.size)
        prep_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(prep_times)

    expected = None
    if args.seed == DEFAULT_SEED and args.size == "full" \
            and not args.freeze:
        expected = workloads.load_expected(args.workload)
        if expected is None:
            print("bench: no frozen reference for this workload; "
                  "run with --freeze", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "inputs": wl.input_ids,
        "setup": {"import_s": import_times, "prepare_s": prep_times},
    }

    if args.trace:
        timed, h, metrics, traced = traced_run(wl, expected, args.seconds, tag)
        result.update(traced)
        harnesses = (timed, h)
    else:
        timed = h = workloads.Harness(expected)
        result["passes"] = _run_passes(wl, h, args.seconds)
        metrics, result["notes"] = end_to_end(h, setup_s)
        harnesses = (h,)
    attempted = sum(x.attempted for x in harnesses)
    failed = sum(x.failed for x in harnesses)
    failures = workloads.listing(*(x.failure_counts for x in harnesses))
    inconclusive = workloads.listing(
        *(x.inconclusive_counts for x in harnesses))
    result["ladder"] = _ladder_report(wl, timed)
    result["op_totals_s"] = timed.op_totals()
    result["samples_s"] = {"|".join(map(str, k)): v
                           for k, v in timed.samples.items()}
    result["failures"] = failures
    result["inconclusive"] = inconclusive
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    result["wall_s"] = time.perf_counter() - t_start

    if args.freeze:
        ref = json.loads(workloads.EXPECTED.read_text()) \
            if workloads.EXPECTED.is_file() else {}
        ref[args.workload] = h.digests
        workloads.EXPECTED.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                      + "\n")
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1))

    for k, (v, u) in metrics.items():
        print(f"{k:58s} {v:14.6f} {u}")
    for k, v in result.get("notes", {}).items():
        print(f"{k:58s} {v}")
    for f in failures:
        print(f"FAILED {f['input']} {f['op']} ({f['times']}x): {f['problem']}")
    for f in inconclusive:
        print(f"INCONCLUSIVE {f['input']} {f['op']} ({f['times']}x): "
              f"{f['problem']}")
    print(f"attempted={attempted} failed={failed} "
          f"inconclusive={sum(f['times'] for f in inconclusive)} "
          f"git={result['git_sha'][:12]} python={result['python']} "
          f"nproc={result['nproc']} seed={args.seed}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--freeze", action="store_true",
                   help="write this run's output digests as the reference")
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
