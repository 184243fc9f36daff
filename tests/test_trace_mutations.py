"""Single-token mutations of the fixture traces.

Every integer and flag on every move line of each fixture's trace is
changed on its own: an integer to the next one (and a 0 also to -1), a
flag to the other value.  A mutant must either be refused with
``TraceFormatError`` or ``ReplayError``, or replay, and ``pseudoform
replay --against`` the fixture must exit 0, 1 or 2.  Some mutants do
replay, to the fixture (a changed ``component=`` tag, which is
informational) or to another valid complex (a changed fresh label,
cycle, vertex or ``u_side``).

Each mutant, of the fixture traces and of the folded
``spine_path_sphere(8)`` trace, must also end as a reference replay
ends that rechecks every step with ``normal_update``, instead of
reading a connected sum's singular map off its record: with the same
error class and text, or with the same complex.
"""

import contextlib
import io
import re

import pytest

from pseudoform import cli, moves, reducer
from pseudoform.complexes import normal_update
from pseudoform.errors import ReplayError, TraceFormatError

from conftest import COMPLEX_FIXTURES, FIXTURES, folded_spine

# the fixtures whose traces have moves (boundary4simplex is a seed)
TRACED = [n for n in COMPLEX_FIXTURES
          if n not in ("boundary4simplex", "double_fold_g2_6")]
TOKEN = re.compile(r"-?[0-9]+|true|false")
CHANGES = {"true": ["false"], "false": ["true"], "0": ["1", "-1"]}


def mutants(text):
    """The trace with one integer or flag of one move line changed."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.startswith("move "):
            continue
        for m in TOKEN.finditer(line):
            for new in CHANGES.get(m.group(), [str(int(m.group()) + 1)]):
                changed = line[:m.start()] + new + line[m.end():]
                yield "".join(lines[:i] + [changed] + lines[i + 1:])


def outcome(text):
    """How replaying the trace ``text`` ends: the error class and text,
    or "replays" and the canonical facets of the result."""
    try:
        return "replays", reducer.replay(reducer.parse_trace(text)).canonical_facets()
    except (TraceFormatError, ReplayError) as e:
        return type(e).__name__, str(e)


def reference_outcome(text):
    """``outcome`` of a replay that calls ``normal_update`` at every step."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(moves, "singular_after",
                  lambda K, K2, record, singular: normal_update(K, K2, singular))
        return outcome(text)


@pytest.mark.parametrize("name", TRACED)
def test_mutated_traces_are_refused_or_replay(name, fx, tmp_path):
    text = reducer.format_trace(reducer.reduce_complex(fx(name)).trace)
    path = tmp_path / "trace.txt"
    outcomes = {}
    for mutant in mutants(text):
        got = outcome(mutant)
        assert got == reference_outcome(mutant)
        outcomes[got[0]] = outcomes.get(got[0], 0) + 1
        path.write_text(mutant)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["replay", str(path), "--against",
                             str(FIXTURES / f"{name}.txt")])
        assert code in (0, 1, 2)
    assert outcomes.get("ReplayError") and outcomes.get("TraceFormatError")


def test_mutated_folded_spine_trace_ends_as_the_reference():
    text = reducer.format_trace(reducer.reduce_complex(folded_spine(8)).trace)
    ends = set()
    for mutant in mutants(text):
        got = outcome(mutant)
        assert got == reference_outcome(mutant)
        ends.add(got[0])
    assert ends == {"replays", "ReplayError", "TraceFormatError"}
