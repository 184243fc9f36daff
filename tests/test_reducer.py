"""Reduction to seeds, trace round trips, replay checking, audits."""

import pytest

from pseudoform import complexes, generators, io, moves, reducer
from pseudoform.complexes import SimplicialComplex
from pseudoform.errors import (MoveError, PseudoformError, ReplayError, SpecError,
                               TraceFormatError)
from pseudoform.generators import (
    boundary_simplex,
    cross_polytope,
    spine_path_sphere,
    staircase_sphere,
)


@pytest.fixture
def SB():
    K, _ = moves.facet_subdivide(boundary_simplex(), (0, 1, 2, 3), fresh=5)
    return K


# ----------------------------------------------------------------- split


def test_split_and_remerge_exactly(SB):
    K1, K2, rec = reducer.split_at_missing_tetrahedron(SB, (0, 1, 2, 3))
    assert rec.kind == "ConnectedSum"
    for part in (K1, K2):
        assert part.f_vector().g2 == 0
        assert len(part.facets) == 5
    merged = moves.apply_record(
        SimplicialComplex(list(K1.facets) + list(K2.facets)), rec
    )
    assert merged == SB


def test_split_needs_a_missing_tetrahedron(SB):
    # a facet, an absent label, then arguments that are not a
    # tetrahedron of integer labels
    for tetra in ((0, 1, 2, 4), (0, 1, 2, 9), 5, [[0], 1, 2, 3], ("a", 1, 2, 3)):
        with pytest.raises(MoveError):
            reducer.split_at_missing_tetrahedron(SB, tetra)
    # fresh labels that clash with the complex, or are no labels at all
    K = staircase_sphere(3)
    for base in (0, 5, K.fresh_label() - 3, "a", True, -4, 2.0):
        with pytest.raises(MoveError):
            reducer.split_at_missing_tetrahedron(K, (1, 2, 3, 4), fresh_base=base)
    base = K.fresh_label() + 2
    K1, K2, rec = reducer.split_at_missing_tetrahedron(K, (1, 2, 3, 4), fresh_base=base)
    assert set(range(base, base + 4)) <= K2.vertices
    merged = moves.apply_record(
        SimplicialComplex(list(K1.facets) + list(K2.facets)), rec
    )
    assert merged == K


def test_split_rejects_moebius_corners(fx):
    F = fx("folded_g2_3")
    quads = sorted(tuple(sorted(q)) for q in F.missing_faces(3))
    assert quads
    for q in quads:
        with pytest.raises(MoveError) as ei:
            reducer.split_at_missing_tetrahedron(F, q)
        msg = str(ei.value)
        assert "one-sided" in msg and "fold" in msg


# ----------------------------------------------------------------- traces


def test_trace_text_round_trip(SB):
    report = reducer.reduce_complex(SB)
    assert report.accepted
    text = reducer.format_trace(report.trace)
    parsed = reducer.parse_trace(text)
    assert reducer.format_trace(parsed) == text
    assert reducer.replay(parsed) == SB


def test_trace_counts_and_summary(fx):
    report = reducer.reduce_complex(fx("folded_g2_3"))
    n_seeds, n_moves, n_folds = report.trace.counts()
    assert n_seeds == 6 and n_folds == 1
    s = report.summary()
    assert "TwoSingularG2_3or4" in s


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: "x" + t, "missing 'trace' header"),
        (lambda t: t.replace("trace ", "trace junk ", 1), "bad header token"),
        (lambda t: t.replace("seed 0", "seed 1", 1), "out of order"),
        (lambda t: t.replace("g2=0", "g2=zero", 1), "bad header"),
    ],
)
def test_parse_trace_error_catalog(mangle, fragment, SB):
    good = reducer.format_trace(reducer.reduce_complex(SB).trace)
    with pytest.raises(TraceFormatError) as ei:
        reducer.parse_trace(mangle(good))
    assert fragment in str(ei.value)


def test_parse_trace_wants_closed_seed_block():
    text = "trace seeds=1 result=5,10,10,5 g2=0\nseed 0\n0 1 2 3\n"
    with pytest.raises(TraceFormatError) as ei:
        reducer.parse_trace(text)
    assert "not closed" in str(ei.value)


def test_parse_trace_rejects_unknown_kind():
    text = (
        "trace seeds=1 result=5,10,10,5 g2=0\n"
        "seed 0\n0 1 2 3\n0 1 2 4\n0 1 3 4\n0 2 3 4\n1 2 3 4\nend\n"
        "move component=0 kind=Teleport facet=(0,1,2,3) g2_delta=0\n"
    )
    with pytest.raises(TraceFormatError) as ei:
        reducer.parse_trace(text)
    assert "unknown kind" in str(ei.value)


def test_parse_trace_enforces_key_order():
    text = (
        "trace seeds=1 result=5,10,10,5 g2=0\n"
        "seed 0\n0 1 2 3\n0 1 2 4\n0 1 3 4\n0 2 3 4\n1 2 3 4\nend\n"
        "move kind=FacetSubdivide component=0 facet=(0,1,2,3) g2_delta=0\n"
    )
    with pytest.raises(TraceFormatError) as ei:
        reducer.parse_trace(text)
    assert "component" in str(ei.value)


def test_replay_rejects_bad_seed():
    # a 5-vertex complex that is not the full boundary of a 4-simplex
    text = (
        "trace seeds=1 result=5,9,8,4 g2=0\n"
        "seed 0\n0 1 2 3\n0 1 2 4\n0 1 3 4\n0 2 3 4\nend\n"
    )
    tr = reducer.parse_trace(text)
    with pytest.raises(ReplayError) as ei:
        reducer.replay(tr)
    assert "not a boundary 4-simplex" in str(ei.value)


def test_replay_rejects_label_reuse():
    block = "0 1 2 3\n0 1 2 4\n0 1 3 4\n0 2 3 4\n1 2 3 4\n"
    text = (
        "trace seeds=2 result=5,10,10,5 g2=0\n"
        f"seed 0\n{block}end\n"
        f"seed 1\n{block}end\n"
    )
    with pytest.raises(ReplayError) as ei:
        reducer.replay(reducer.parse_trace(text))
    assert "reuses labels" in str(ei.value)


def test_replay_catches_tampered_claims(SB):
    tr = reducer.reduce_complex(SB).trace
    bad = reducer.ConstructionTrace(
        seeds=tr.seeds,
        forward_moves=tr.forward_moves,
        claimed_fcounts=tr.claimed_fcounts,
        claimed_g2=tr.claimed_g2 + 1,
    )
    with pytest.raises(ReplayError) as ei:
        reducer.replay(bad)
    assert "differs from claimed" in str(ei.value)


def test_replay_reports_failing_move_index(SB):
    tr = reducer.reduce_complex(SB).trace
    assert tr.forward_moves
    tag, rec = tr.forward_moves[0]
    # repeat the first move; the duplicate must fail its precondition
    bad = reducer.ConstructionTrace(
        seeds=tr.seeds,
        forward_moves=tr.forward_moves + ((tag, rec),),
        claimed_fcounts=tr.claimed_fcounts,
        claimed_g2=tr.claimed_g2,
    )
    with pytest.raises(ReplayError) as ei:
        reducer.replay(bad)
    assert ei.value.index == len(tr.forward_moves)


def test_replay_needs_seeds():
    tr = reducer.ConstructionTrace((), (), (0, 0, 0, 0), 0)
    with pytest.raises(ReplayError):
        reducer.replay(tr)


# ----------------------------------------------------------------- reduce


def test_reduce_boundary_simplex_is_trivial():
    r = reducer.reduce_complex(boundary_simplex())
    assert r.accepted and r.input_class == reducer.CLASS_STACKED
    assert r.trace.counts() == (1, 0, 0)


def test_reduce_stacked_sphere_splits(SB):
    r = reducer.reduce_complex(SB)
    assert r.input_class == reducer.CLASS_STACKED
    kinds = [rec.kind for _t, rec in r.trace.forward_moves]
    assert kinds == ["ConnectedSum"]
    assert reducer.replay(r.trace) == SB


def test_reduce_staircase_all_seeds():
    ST = staircase_sphere(8)
    r = reducer.reduce_complex(ST)
    assert r.accepted
    n_seeds, _m, n_folds = r.trace.counts()
    assert n_seeds == 8 and n_folds == 0  # one seed per block
    assert reducer.replay(r.trace) == ST


def test_reduce_cross_polytope():
    CP = cross_polytope()
    r = reducer.reduce_complex(CP)
    assert r.input_class == reducer.CLASS_SPHERE
    assert reducer.replay(r.trace) == CP


def test_reduce_spine_sphere():
    PS = spine_path_sphere(6)
    r = reducer.reduce_complex(PS)
    assert r.accepted
    assert reducer.replay(r.trace) == PS


def test_reduce_folded_fixture_uses_one_fold(fx):
    F = fx("folded_g2_3")
    r = reducer.reduce_complex(F)
    assert r.input_class == reducer.CLASS_TWO_SINGULAR
    kinds = [rec.kind for _t, rec in r.trace.forward_moves]
    assert kinds.count("EdgeFold") == 1
    assert kinds.count("HandleAdd") == 0
    assert reducer.replay(r.trace) == F


def test_reduce_is_deterministic(fx):
    F = fx("folded_g2_4")
    t1 = reducer.format_trace(reducer.reduce_complex(F).trace)
    t2 = reducer.format_trace(reducer.reduce_complex(F).trace)
    assert t1 == t2


def test_reduce_disjoint_union_tags_components():
    A = boundary_simplex(base=0)
    B = cross_polytope()
    shift = {v: v + 100 for v in B.vertices}
    B = B.relabeled(shift)
    U = SimplicialComplex(list(A.facets) + list(B.facets))
    r = reducer.reduce_complex(U)
    assert r.accepted
    tags = {t for t, _rec in r.trace.forward_moves}
    assert tags <= {0, 1}
    assert reducer.replay(r.trace) == U


# -------------------------------------------------------------- rejection


def test_reject_empty():
    r = reducer.reduce_complex(SimplicialComplex([]))
    assert not r.accepted
    assert r.reason == "empty complex"
    assert r.trace is None


def test_reject_four_singular_vertices(fx):
    r = reducer.reduce_complex(fx("double_fold_g2_6"))
    assert not r.accepted
    assert "projective-plane" in r.reason
    assert "Rejected" in r.summary()


def test_reject_out_of_scope_singular_g2(fixture_text):
    tris = io.parse_facets(fixture_text("rp2_6"))
    susp = SimplicialComplex(
        [t + (6,) for t in tris] + [t + (7,) for t in tris]
    )
    assert susp.f_vector().g2 == 5
    r = reducer.reduce_complex(susp)
    assert not r.accepted
    assert "g2=5" in r.reason


def test_reject_large_sphere_g2():
    ST = staircase_sphere(9)
    from pseudoform.generators import find_admissible_handle

    site = find_admissible_handle(ST)
    assert site is not None
    s1, s2, pairs = site
    H, _ = moves.handle_addition(ST, s1, s2, dict(pairs))
    assert H.f_vector().g2 == 10
    r = reducer.reduce_complex(H)
    assert not r.accepted
    assert "g2=10" in r.reason


# ----------------------------------------------------------------- audit


def test_audit_measures_first(fx):
    rep = reducer.audit_multi_singular(fx("double_fold_g2_6"))
    assert not rep.applicable
    assert rep.defeated
    assert any("g2=6" in f for f in rep.facts)
    # 4 singular vertices are consistent with the "more than 2" claim,
    # so the refutation rests on the measured g2 alone
    assert all("singular vertices, not more than" not in f for f in rep.facts)


def test_audit_refutes_non_normal_input():
    # two tetrahedra wedged at a vertex: the link there is disconnected
    K = SimplicialComplex([(0, 1, 2, 3), (0, 4, 5, 6)])
    rep = reducer.audit_multi_singular(K)
    assert not rep.applicable
    assert any("not a normal closed" in f for f in rep.facts)


def test_audit_force_battery_fires(fx):
    for name in ("double_fold_g2_6", "folded_g2_4"):
        rep = reducer.audit_multi_singular(fx(name), force=True)
        assert rep.defeated
        assert rep.violations, name
        codes = {code for code, _w in rep.violations}
        assert codes <= {
            "missing-triangle-in-nonsingular-link",
            "edge-degree-below-four",
            "empty-common-link-difference",
            "too-few-vertices-for-eight-singular",
            "nonsingular-degree-above-eight",
            "edge-between-nonsingular-vertices",
            "singular-vertex-with-multiple-nonsingular-neighbors",
        }
        assert len(codes) >= 2


def test_audit_summary_readable(fx):
    rep = reducer.audit_multi_singular(fx("double_fold_g2_6"), force=True)
    s = rep.summary()
    assert "refuted" in s
    assert "violated" in s


@pytest.mark.parametrize("call, error", [
    (lambda K: reducer.replay(None), ReplayError),
    (lambda K: reducer.parse_trace(5), TraceFormatError),
    (lambda K: reducer.parse_trace(b"x"), TraceFormatError),
    (lambda K: reducer.format_trace(None), TraceFormatError),
    (lambda K: complexes.total_g2(None), PseudoformError),
    (lambda K: moves.apply_record(K, 5), MoveError),
    (lambda K: complexes.normal_update(K, 5, {}), PseudoformError),
    (lambda K: complexes.validate_normal(5), PseudoformError),
    (lambda K: generators.generate(5), SpecError),
])
def test_replay_path_refuses_arguments_of_the_wrong_type(call, error):
    with pytest.raises(error):
        call(boundary_simplex())
