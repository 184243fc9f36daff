"""End-to-end command-line behavior, run in-process."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from pseudoform import cli, io, reducer
from pseudoform.generators import boundary_simplex, spine_path_sphere, staircase_sphere

from conftest import COMPLEX_FIXTURES, FIXTURES


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def path(name):
    return str(FIXTURES / f"{name}.txt")


# ------------------------------------------------------------ inspection


def test_validate_positive(capsys):
    code, out, _err = run(capsys, "validate", path("boundary4simplex"))
    assert code == 0
    assert "NormalClosed" in out or "normal" in out.lower()


def test_validate_negative(capsys, tmp_path):
    bad = tmp_path / "wedge.txt"
    bad.write_text("0 1 2 3\n0 4 5 6\n")
    code, out, _err = run(capsys, "validate", str(bad))
    assert code == 1
    assert out.strip()


def test_validate_json_lists_singulars(capsys):
    code, out, _err = run(capsys, "validate", path("folded_g2_3"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NormalClosed"
    assert [0, "RP2"] in payload["singular"]
    assert [1, "RP2"] in payload["singular"]


def test_fvector_byte_exact(capsys):
    code, out, _err = run(capsys, "fvector", path("boundary4simplex"))
    assert code == 0
    assert out == "f=(5,10,10,5) g2=0 g3=0\n"


def test_fvector_json(capsys):
    code, out, _err = run(capsys, "fvector", path("cross_polytope"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"f": [8, 24, 32, 16], "g2": 2, "g3": -2}


def test_links_text(capsys):
    code, out, _err = run(capsys, "links", path("folded_g2_3"))
    assert code == 0
    lines = out.strip().splitlines()
    assert "vertex 0: RP2" in lines[0]
    assert sum(1 for ln in lines if "RP2" in ln) == 2
    assert sum(1 for ln in lines if "Sphere" in ln) == 6


def test_missing_none(capsys):
    code, out, _err = run(capsys, "missing", path("boundary4simplex"))
    assert code == 0
    assert out.strip() == "none"


def test_missing_lists_tetrahedron(capsys, tmp_path):
    from pseudoform import moves

    SB, _ = moves.facet_subdivide(boundary_simplex(), (0, 1, 2, 3), fresh=5)
    p = tmp_path / "sb.txt"
    io.save_facets(p, SB.facets)
    code, out, _err = run(capsys, "missing", str(p))
    assert code == 0
    assert "tetrahedron 0 1 2 3" in out
    assert "triangle" not in out


# ----------------------------------------------------------------- moves


def test_move_applies_and_reports(capsys):
    code, out, err = run(
        capsys, "move", "Bistellar1", path("cross_polytope"),
        "--triangle", "0,2,4",
    )
    assert code == 0
    assert "applied Bistellar1" in err
    K = io.parse_complex(out)
    assert K.f_vector().g2 == 3


def test_move_rejection_exits_one(capsys):
    code, _out, err = run(
        capsys, "move", "Bistellar1", path("boundary4simplex"),
        "--triangle", "0,1,2",
    )
    assert code == 1
    assert "rejected:" in err


def test_move_missing_flag_is_malformed(capsys):
    code, _out, err = run(
        capsys, "move", "Bistellar1", path("cross_polytope")
    )
    assert code == 2
    assert "requires --triangle" in err


def test_move_unknown_kind_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["move", "Teleport", path("cross_polytope")])
    assert ei.value.code == 2


def test_move_writes_output_file(capsys, tmp_path):
    dest = tmp_path / "out.txt"
    code, out, _err = run(
        capsys, "move", "FacetSubdivide", path("boundary4simplex"),
        "--facet", "0,1,2,3", "--fresh", "9", "-o", str(dest),
    )
    assert code == 0
    assert out == ""  # routed to the file instead
    K = io.load_complex(dest)
    assert K.f_vector().f0 == 6 and 9 in K.vertices


def test_move_fold_pipeline(capsys, tmp_path):
    spine = tmp_path / "spine.txt"
    code, out, _err = run(capsys, "gen", "BoundarySimplex", "-o", str(spine))
    assert code == 0
    code, out, err = run(
        capsys, "move", "EdgeFold", path("foldable_sphere"),
        "--sigma1", "0,1,2,3", "--sigma2", "0,1,7,9",
        "--psi", "0:0,1:1,2:7,3:9",
    )
    assert code == 0
    folded = io.parse_complex(out)
    assert folded == io.load_complex(path("folded_g2_3"))


# ----------------------------------------------------- reduce and replay


def test_reduce_replay_round_trip(capsys, tmp_path):
    tracefile = tmp_path / "t.trace"
    code, out, err = run(
        capsys, "reduce", path("folded_g2_3"), "--trace", str(tracefile)
    )
    assert code == 0
    assert "TwoSingularG2_3or4" in out
    assert tracefile.exists()

    code, out, _err = run(capsys, "replay", str(tracefile),
                          "--against", path("folded_g2_3"))
    assert code == 0
    assert "replay ok" in out

    code, _out, err = run(capsys, "replay", str(tracefile),
                          "--against", path("cross_polytope"))
    assert code == 1
    assert "differs" in err


def test_reduce_rejection(capsys):
    code, out, _err = run(capsys, "reduce", path("double_fold_g2_6"))
    assert code == 1
    assert "Rejected" in out


def test_replay_tampered_trace(capsys, tmp_path):
    tracefile = tmp_path / "t.trace"
    run(capsys, "reduce", path("cross_polytope"), "--trace", str(tracefile))
    text = tracefile.read_text().replace("g2=2", "g2=3", 1)
    tracefile.write_text(text)
    code, _out, err = run(capsys, "replay", str(tracefile))
    assert code == 1
    assert "replay failed" in err


# ----------------------------------------------------------------- audit


def test_audit_defeats_double_fold(capsys):
    code, out, _err = run(capsys, "audit-g", path("double_fold_g2_6"))
    assert code == 0
    assert "refuted" in out


def test_audit_force_lists_violations(capsys):
    code, out, _err = run(
        capsys, "audit-g", path("double_fold_g2_6"), "--force", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["defeated"] is True
    assert payload["violations"]


# -------------------------------------------------------------- rigidity


def test_rigidity_rigid(capsys):
    code, out, _err = run(capsys, "rigidity", path("boundary4simplex"))
    assert code == 0
    assert "rigid" in out and "excess=0" in out


def test_rigidity_floppy_union(capsys, tmp_path):
    A = boundary_simplex()
    B = boundary_simplex(base=10)
    p = tmp_path / "two.txt"
    io.save_facets(p, list(A.facets) + list(B.facets))
    code, out, _err = run(capsys, "rigidity", str(p))
    assert code == 1
    assert "not-rigid" in out


def test_rigidity_rejects_surface_file(capsys):
    code, _out, err = run(capsys, "rigidity", path("rp2_6"))
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_rigidity_refuses_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, "rigidity", path("boundary4simplex"), "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"malformed input: trials must be at least 1, got {trials}\n"


# stdout and exit code of `rigidity` and `rigidity --json` on every
# complex fixture, recorded before the rank became a sparse pass.
RIGIDITY_OUTPUT = {
    "boundary4simplex": (0, "V=5 E=10 dim=4 rank=10/10 rigid excess=0\n",
                         '{"edge_excess": 0, "edges": 10, "expected_full_rank": 10, "rank": 10, "rigid": true, "vertices": 5}\n'),
    "stacked_sphere_8": (0, "V=8 E=22 dim=4 rank=22/22 rigid excess=0\n",
                         '{"edge_excess": 0, "edges": 22, "expected_full_rank": 22, "rank": 22, "rigid": true, "vertices": 8}\n'),
    "cross_polytope": (0, "V=8 E=24 dim=4 rank=22/22 rigid excess=2\n",
                       '{"edge_excess": 2, "edges": 24, "expected_full_rank": 22, "rank": 22, "rigid": true, "vertices": 8}\n'),
    "chain5": (0, "V=9 E=26 dim=4 rank=26/26 rigid excess=0\n",
               '{"edge_excess": 0, "edges": 26, "expected_full_rank": 26, "rank": 26, "rigid": true, "vertices": 9}\n'),
    "chain9": (0, "V=13 E=42 dim=4 rank=42/42 rigid excess=0\n",
               '{"edge_excess": 0, "edges": 42, "expected_full_rank": 42, "rank": 42, "rigid": true, "vertices": 13}\n'),
    "foldable_sphere": (0, "V=10 E=30 dim=4 rank=30/30 rigid excess=0\n",
                        '{"edge_excess": 0, "edges": 30, "expected_full_rank": 30, "rank": 30, "rigid": true, "vertices": 10}\n'),
    "folded_g2_3": (0, "V=8 E=25 dim=4 rank=22/22 rigid excess=3\n",
                    '{"edge_excess": 3, "edges": 25, "expected_full_rank": 22, "rank": 22, "rigid": true, "vertices": 8}\n'),
    "folded_g2_4": (0, "V=8 E=26 dim=4 rank=22/22 rigid excess=4\n",
                    '{"edge_excess": 4, "edges": 26, "expected_full_rank": 22, "rank": 22, "rigid": true, "vertices": 8}\n'),
    "double_fold_g2_6": (0, "V=12 E=44 dim=4 rank=38/38 rigid excess=6\n",
                         '{"edge_excess": 6, "edges": 44, "expected_full_rank": 38, "rank": 38, "rigid": true, "vertices": 12}\n'),
}


def test_rigidity_output_pinned(capsys):
    assert sorted(RIGIDITY_OUTPUT) == sorted(COMPLEX_FIXTURES)
    for name, (want_code, text, payload) in RIGIDITY_OUTPUT.items():
        assert run(capsys, "rigidity", path(name))[:2] == (want_code, text)
        assert run(capsys, "rigidity", path(name), "--json")[:2] == (
            want_code, payload)


# ------------------------------------------------------------ generators


def test_gen_stdout_and_json(capsys):
    code, out, _err = run(capsys, "gen", "StackedSphere(4)")
    assert code == 0
    K = io.parse_complex(out)
    assert K.f_vector().g2 == 0 and K.f_vector().f0 == 8

    code, out, _err = run(capsys, "gen", "StackedSphere(4)", "--json")
    payload = json.loads(out)
    assert payload["spec"] == "StackedSphere(blocks=4)"
    assert payload["g2_total"] == 0


def test_gen_refuses_a_block_count_past_the_limit(capsys):
    # refused before any block is built, with the reason
    code, out, err = run(capsys, "gen", "StackedSphere(100000000000)")
    assert code == 2 and out == ""
    assert "blocks must be from 1 to" in err


@pytest.mark.parametrize("budget", [-1, 1001, 100000000])
def test_gen_refuses_a_walk_budget_past_the_limit(budget, capsys):
    # refused before the walk starts, with the reason
    code, out, err = run(capsys, "gen", f"RandomMoves(budget={budget})")
    assert code == 2 and out == ""
    assert "budget must be from 0 to 1000" in err


def test_gen_trace_replays(capsys, tmp_path):
    tracefile = tmp_path / "g.trace"
    outfile = tmp_path / "g.txt"
    code, _out, _err = run(
        capsys, "gen", "RandomMoves(seed=3,budget=12)",
        "-o", str(outfile), "--trace", str(tracefile),
    )
    assert code == 0
    trace = reducer.parse_trace(tracefile.read_text())
    assert reducer.replay(trace) == io.load_complex(outfile)


def test_gen_bad_spec(capsys):
    code, _out, err = run(capsys, "gen", "Nope(1)")
    assert code == 2
    assert "malformed" in err


def test_gen_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PSEUDOFORM_SEED", "2")
    code, out_env, _err = run(capsys, "gen", "RandomMoves(budget=10)")
    assert code == 0
    monkeypatch.delenv("PSEUDOFORM_SEED")
    code, out_explicit, _err = run(capsys, "gen", "RandomMoves(seed=2,budget=10)")
    assert code == 0
    assert out_env == out_explicit


# ------------------------------------------------------------------- iso


def test_iso_finds_relabeling(capsys, tmp_path):
    K = boundary_simplex()
    other = K.relabeled({v: v + 20 for v in K.vertices})
    p = tmp_path / "shift.txt"
    io.save_facets(p, other.facets)
    code, out, _err = run(capsys, "iso", path("boundary4simplex"), str(p))
    assert code == 0
    assert out.startswith("isomorphic")
    assert "0:20" in out


def test_iso_answers_on_large_spheres(capsys, tmp_path):
    """Two relabelings of a 68-vertex sphere: the search resolves at the
    first whole facet (it gave up as inconclusive before it did)."""
    K = staircase_sphere(64)
    files = []
    for seed in (1, 2):
        labels = sorted(K.vertices)
        image = labels[:]
        random.Random(seed).shuffle(image)
        files.append(K.relabeled(dict(zip(labels, image))))
        io.save_facets(tmp_path / f"s{seed}.txt", files[-1].facets)
    code, out, _err = run(capsys, "iso", str(tmp_path / "s1.txt"),
                          str(tmp_path / "s2.txt"), "--json")
    assert code == 0
    mapping = dict(map(tuple, json.loads(out)["mapping"]))
    K1, K2 = files
    assert {frozenset(mapping[x] for x in F) for F in K1.facets} == K2.facets


def test_iso_negative(capsys):
    code, out, _err = run(
        capsys, "iso", path("boundary4simplex"), path("cross_polytope")
    )
    assert code == 1
    assert "not isomorphic" in out


# ``pseudoform iso`` stdout and exit code, recorded before the search
# learned to count the candidates it skips: each fixture against a
# seeded relabeling of itself, and two spheres with equal face counts.
ISO_PINS = pathlib.Path(__file__).parent / "iso_cli_pins.json"


def iso_cli_pairs(tmp_path):
    """Name -> (file1, file2) for every pinned ``iso`` call."""
    pairs = {}
    for f in sorted(FIXTURES.glob("*.txt")):
        rows = io.parse_facets(f.read_text())
        labels = sorted({x for row in rows for x in row})
        image = labels[:]
        random.Random(f"iso:{f.stem}").shuffle(image)
        to = dict(zip(labels, image))
        copy = tmp_path / f"{f.stem}-shuffled.txt"
        io.save_facets(copy, ([to[x] for x in row] for row in rows))
        pairs[f.stem] = (str(f), str(copy))
    for name, K in (("staircase9", staircase_sphere(9)), ("spine9", spine_path_sphere(9))):
        io.save_facets(tmp_path / f"{name}.txt", K.facets)
    pairs["staircase9-vs-spine9"] = (str(tmp_path / "staircase9.txt"),
                                     str(tmp_path / "spine9.txt"))
    return pairs


def test_iso_output_pinned(capsys, tmp_path):
    got = {}
    for name, (f1, f2) in iso_cli_pairs(tmp_path).items():
        for flags in ((), ("--json",)):
            code, out, _err = run(capsys, "iso", f1, f2, *flags)
            got[" ".join((name, *flags))] = [code, out]
    assert got == json.loads(ISO_PINS.read_text())


# ---------------------------------------------------------------- errors


def test_unreadable_file(capsys):
    code, _out, err = run(capsys, "validate", "/nonexistent/k.txt")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["validate", "replay"])
def test_directory_as_input(capsys, tmp_path, command):
    code, _out, err = run(capsys, command, str(tmp_path))
    assert code == 2
    assert err == f"cannot read {tmp_path}\n"


@pytest.mark.parametrize("argv", [
    ["reduce", path("boundary4simplex"), "--trace"],
    ["gen", "StackedSphere(4)", "--trace"],
    ["gen", "StackedSphere(4)", "-o"],
    ["move", "FacetSubdivide", path("boundary4simplex"), "--facet", "0,1,2,3",
     "--fresh", "9", "-o"],
])
def test_unwritable_output(capsys, tmp_path, argv):
    target = str(tmp_path / "no-such-dir" / "out")
    code, _out, err = run(capsys, *argv, target)
    assert code == 2
    assert err.endswith(f"cannot write {target}\n")


def test_malformed_facet_file(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1 2 junk\n")
    code, _out, err = run(capsys, "fvector", str(p))
    assert code == 2
    assert "malformed" in err


def test_a_closed_output_pipe_is_a_write_failure():
    # as ``pseudoform gen ... --json | head -c 10``: the output is larger
    # than the pipe holds, so writing it meets the closed read end
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(FIXTURES.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    child = subprocess.Popen(
        [sys.executable, "-m", "pseudoform.cli", "gen", "StackedSphere(1000)", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.read(10) == b'{"f": [100'
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert err == "cannot write standard output: broken pipe\n"
