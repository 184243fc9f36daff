"""The demos run, the fixture recipes rebuild the committed files, and
the README names only what the package defines."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import pseudoform
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


def test_the_cli_imports_only_the_standard_library():
    # the package has no runtime dependencies: importing the CLI loads
    # no module outside the standard library and the package itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys; before = set(sys.modules); import pseudoform.cli; "
             "print('\\n'.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "pseudoform.cli" in loaded
    outside = [name for name in loaded if name.partition(".")[0] not in
               sys.stdlib_module_names | {"pseudoform"}]
    assert outside == []


# A backticked snake_case name, with an optional module before a dot.
README_NAME = re.compile(r"`(?:([a-z]+)\.)?(_?[a-z][a-z0-9_]*)`")


def package_names():
    """The package's modules by name, every attribute of one, and every
    parameter of a function, class or method the package defines."""
    modules = {"pseudoform": pseudoform}
    for info in pkgutil.iter_modules(pseudoform.__path__):
        modules[info.name] = importlib.import_module(f"pseudoform.{info.name}")
    attributes, parameters = set(), set()
    for module in modules.values():
        attributes.update(vars(module))
        for obj in vars(module).values():
            if not getattr(obj, "__module__", "").startswith("pseudoform"):
                continue
            members = [obj] + (list(vars(obj).values()) if inspect.isclass(obj) else [])
            for member in filter(callable, members):
                try:
                    parameters.update(inspect.signature(member).parameters)
                except (TypeError, ValueError):
                    pass
    return modules, attributes, parameters


def test_the_readme_names_only_what_the_package_defines():
    modules, attributes, parameters = package_names()
    names = {(module, name) for module, name in
             README_NAME.findall((ROOT / "README.md").read_text()) if "_" in name}
    assert len(names) > 20
    stale = [(module, name) for module, name in sorted(names)
             if not (hasattr(modules[module], name) if module in modules
                     else name in attributes | parameters)]
    assert stale == []
