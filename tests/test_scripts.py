"""The demos run, and the fixture recipes rebuild the committed files."""

import importlib.util
import os
import subprocess
import sys

import pytest

from pseudoform import io as pio

from conftest import FIXTURES

ROOT = FIXTURES.parent


def test_fixture_recipes_rebuild_the_committed_bytes():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recipes = script.recipes()
    assert sorted(recipes) == sorted(p.name for p in FIXTURES.glob("*.txt"))
    for name, facets in recipes.items():
        assert pio.format_facets(facets) == (FIXTURES / name).read_text(), name


@pytest.mark.parametrize("demo", ["fold_and_reduce.py", "move_ledger.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
