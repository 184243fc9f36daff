"""The undo column of the move table against the move it undoes.

The reducer records, for each shrinking step, the forward record that
the kind's ``undo`` names, and constructs nothing to check it.  The gate
here makes that check at every site of every kind with an ``undo``, on
the fixtures, the pinned walks and ladder rungs: the forward move,
constructed on the step's result with the record's inputs and fresh
labels, must return exactly that record and rebuild the state before
the step, and so must ``moves.apply_record``.  The mutants of the
column must fail it.
"""

import pytest

from pseudoform import generators as gen, moves, reducer
from pseudoform.errors import PseudoformError

from conftest import COMPLEX_FIXTURES, UNDO_MUTANTS, fold_rung

UNDO_KINDS = (moves.BISTELLAR2, moves.EDGE_CONTRACT, moves.TWO_FACETS_INSERT,
              moves.EDGE_UNFOLD)
RUNGS = (8, 16, 32)


@pytest.fixture(scope="module")
def gate_inputs(fx, walk):
    """The fixtures, the reducer's pinned walks (sphere walks 100-119 and
    fold walks 0-19 at budget 20) and the staircase and fold rungs."""
    inputs = [fx(name) for name in COMPLEX_FIXTURES]
    inputs += [walk(seed, False).complex for seed in range(100, 120)]
    inputs += [walk(seed, True).complex for seed in range(20)]
    inputs += [gen.staircase_sphere(n) for n in RUNGS] + [fold_rung(n) for n in RUNGS]
    return inputs


def undo_failures(K, reached):
    """Each site of ``K`` of a kind with an ``undo`` whose undo fails, as
    (kind, site, why), lazily; ``reached`` counts the sites per kind."""
    for kind, move in moves.MOVES.items():
        if move.undo is None:
            continue
        for site in move.sites(K):
            reached[kind] = reached.get(kind, 0) + 1
            after, rec = move.construct(K, dict(zip(move.inputs, site)))
            undo = move.undo(K, rec.param_dict())
            try:
                rebuilt, forward = moves.MOVES[undo.kind].construct(after, undo.param_dict())
                replayed = moves.apply_record(after, undo)
            except PseudoformError as e:
                yield kind, site, f"refused: {e}"
                continue
            if forward != undo:
                yield kind, site, f"constructs {forward}, not {undo}"
            elif rebuilt != K or replayed != K:
                yield kind, site, f"{undo} does not rebuild the state before {rec}"


def test_the_undo_kinds_are_the_reducers():
    have = tuple(kind for kind, move in moves.MOVES.items() if move.undo is not None)
    assert have == UNDO_KINDS
    assert {rule[1] for rules in reducer._RULES.values() for rule in rules} == set(UNDO_KINDS)


def test_every_undo_rebuilds_the_state_before(gate_inputs):
    reached: dict = {}
    failures = [f for K in gate_inputs for f in undo_failures(K, reached)]
    assert failures == []
    assert set(reached) == set(UNDO_KINDS)
    assert sum(reached.values()) > 800


@pytest.mark.parametrize("mutate", UNDO_MUTANTS)
def test_the_undo_gate_fails_on_a_mutant(mutate, monkeypatch, gate_inputs):
    mutate(monkeypatch)
    reached: dict = {}
    failures = (f for K in gate_inputs for f in undo_failures(K, reached))
    assert next(failures, None) is not None
