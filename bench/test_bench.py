"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pseudoform  # noqa: E402
import pseudoform.cli  # noqa: E402,F401 - loads every layer
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from pseudoform import generators  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _rung_trace():
    K = generators.staircase_sphere(4)
    rows = K.canonical_facets()
    rep = pseudoform.reduce_complex(K)
    return rows, pseudoform.format_trace(rep.trace)


@pytest.mark.parametrize("tamper", [
    lambda t: t.replace("g2_delta=0", "g2_delta=1", 1),
    lambda t: t.replace("seed 1\n", "seed 1\n0 1 2 3\n", 1),
    lambda t: t.replace("trace ", "trace seeds=x ", 1),
    lambda t: t.replace("kind=ConnectedSum", "kind=Bogus", 1),
])
def test_tampered_trace_is_a_failure_not_a_crash(tamper):
    rows, text = _rung_trace()
    bad = tamper(text)
    assert bad != text
    h = workloads.Harness()
    target = frozenset(frozenset(F) for F in rows)
    assert workloads.replay_text(h, "rung4", bad, target) is None
    assert (h.attempted, h.failed) == (1, 1)
    assert h.failures[0]["input"] == "rung4"
    assert h.failures[0]["op"] == "replay"
    assert workloads.replay_text(h, "rung4", text, target) is not None
    assert (h.attempted, h.failed) == (2, 1)


def test_inconclusive_isomorphism_is_timed_and_listed_not_failed():
    rows = generators.staircase_sphere(6).canonical_facets()
    other = workloads.shuffled(rows, 3)
    SC = pseudoform.SimplicialComplex
    h = workloads.Harness()
    out = h.op("rung6", "iso", lambda: pseudoform.find_isomorphism(
        SC(rows), SC(other), node_budget=1))
    assert out is None
    assert (h.attempted, h.failed, h.n_inconclusive) == (1, 0, 1)
    assert h.inconclusive[0]["input"] == "rung6"
    assert h.op_totals()["iso"] > 0


def _bindings():
    """Every attribute of the package's modules and of their classes."""
    seen = {}
    modules = [pseudoform] + [getattr(pseudoform, m)
                              for m in tracer_mod.LAYERS]
    for mod in modules:
        for attr, obj in vars(mod).items():
            seen[(mod.__name__, attr)] = obj
            if isinstance(obj, type):
                for mattr, raw in vars(obj).items():
                    seen[(mod.__name__, attr, mattr)] = raw
    return seen


def test_traced_run_restores_every_binding():
    before = _bindings()
    tr = tracer_mod.Tracer()
    tr.install(pseudoform)
    assert tr.wrapped_bindings > 50
    # re-exported copies are wrapped too, with the defining module's name
    assert pseudoform.reducer.validate_normal is not before[
        ("pseudoform.reducer", "validate_normal")]
    assert pseudoform.validate_normal is pseudoform.reducer.validate_normal
    try:
        tr.recording = True
        h = workloads.Harness(tracer=tr)
        wl = workloads.StaircaseLadder(5, "tiny")
        wl.run_item(h, 0, 0)
    finally:
        tr.recording = False
        tr.uninstall()
    assert h.failed == 0
    assert tr.stats["complexes.validate_normal"].calls > 0
    assert tr.edges[("reducer.replay", "moves.apply_record")] > 0
    assert tr.unrestored() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_failures_and_reraises():
    def boom():
        raise ValueError("x")

    tr = tracer_mod.Tracer()
    fn = tr._wrap(boom, "m.boom")
    tr.recording = True
    with pytest.raises(ValueError):
        fn()
    st = tr.stats["m.boom"]
    assert (st.calls, st.failed) == (1, 1)


def test_invariants_of_the_ladders():
    for n in (4, 9):
        rows = generators.staircase_sphere(n).canonical_facets()
        assert workloads.face_counts(rows) == workloads.sphere_fvector(n)
        rows = generators.spine_path_sphere(n).canonical_facets()
        assert workloads.face_counts(rows) == workloads.sphere_fvector(n)
    rows = generators.staircase_sphere(6).canonical_facets()
    other = workloads.shuffled(rows, 3)
    m = pseudoform.find_isomorphism(pseudoform.SimplicialComplex(rows),
                                    pseudoform.SimplicialComplex(other))
    assert workloads.iso_problem(m, rows, other) is None
    m[next(iter(m))] = -1
    assert workloads.iso_problem(m, rows, other) is not None
