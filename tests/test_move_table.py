"""The move table: schemas, shared preconditions, full-record replay."""

import hashlib
import itertools

import pytest

from pseudoform import cli, complexes, moves, reducer, surfaces
from pseudoform import generators as gen
from pseudoform.complexes import SimplicialComplex
from pseudoform.errors import MoveError, ReplayError, TraceFormatError

from conftest import COMPLEX_FIXTURES, normal_update

WALKS = [(seed, fold) for seed in range(4) for fold in (False, True)]


def _walk(seed, fold):
    spec = gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", 12), ("allow_fold", fold),
        ("g2_cap", 4 if fold else 9),
    ))
    return gen.generate(spec)


def _unfold_trace(fx):
    """The folded fixture's reduction trace plus an unfold at its end."""
    K = fx("folded_g2_3")
    tr = reducer.reduce_complex(K).trace
    K2, rec = moves.edge_unfold(K, moves.detect_unfold(K).tetra)
    return reducer._trace(K2, tr.seeds, tr.forward_moves + ((0, rec),))


@pytest.fixture(scope="module")
def corpus(fx):
    traces = [reducer.reduce_complex(fx(name)).trace for name in COMPLEX_FIXTURES]
    traces = [t for t in traces if t is not None]
    traces += [_walk(seed, fold).trace for seed, fold in WALKS]
    return traces + [_unfold_trace(fx)]


def test_corpus_records_fit_their_schemas(corpus):
    kinds = set()
    for tr in corpus:
        for _tag, rec in tr.forward_moves:
            schema = moves.MOVES[rec.kind].params
            assert [k for k, _ in rec.params] == [p.key for p in schema]
            for p, (_k, v) in zip(schema, rec.params):
                text = reducer._encode_value(v)
                assert reducer._decode_value(0, p.key, text, p.shape) == v
            kinds.add(rec.kind)
    assert moves.EDGE_UNFOLD in kinds and moves.EDGE_FOLD in kinds


# Besides the fixtures: two disjoint boundary 4-simplices, where no
# handle may glue across the components, and two facets sharing a
# triangle, whose apex stars meet in that triangle without forming a
# ball and whose edge links are paths.
SITE_INPUTS = COMPLEX_FIXTURES + ("two_simplices", "two_facets")


def _site_input(name, fx):
    if name == "two_simplices":
        return SimplicialComplex(gen.boundary_simplex().facets
                                 | gen.boundary_simplex(5).facets)
    if name == "two_facets":
        return SimplicialComplex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4)])
    return fx(name)


@pytest.mark.parametrize("name", SITE_INPUTS)
def test_every_listed_site_constructs_and_replays(name, fx):
    K = _site_input(name, fx)
    for kind, move in moves.MOVES.items():
        if move.sites is None or kind == moves.EDGE_EXPAND:
            continue  # EdgeExpand lists candidate cycles, not sites
        for site in move.sites(K):
            values = dict(zip(move.inputs, site))
            K2, rec = move.construct(K, values)
            assert moves.apply_record(K, rec) == K2


def test_only_the_connected_sum_has_no_site_enumerator():
    assert [kind for kind, m in moves.MOVES.items() if m.sites is None] == [
        moves.CONNECTED_SUM]


# ``admissible_handles`` as the all-pairs distance table that
# ``moves.handle_sites`` replaced listed them, as (count, sha256 of the
# repr): these on chain9 and ``staircase_sphere(n)``, none on the
# other fixtures.
HANDLES = {
    "chain9": (1, "848041cae56e2269a70fc2cfe6d161d24e8d96b83ac201c5bf6a92e035e296b0"),
    9: (1, "848041cae56e2269a70fc2cfe6d161d24e8d96b83ac201c5bf6a92e035e296b0"),
    16: (3507, "e6cccb588d46615f71468e7db7f7860ea5baa9ffb9ec24eb5cc350b06ba8558f"),
}


@pytest.mark.parametrize("name", COMPLEX_FIXTURES + (9, 16))
def test_admissible_handles_are_pinned(name, fx):
    K = gen.staircase_sphere(name) if isinstance(name, int) else fx(name)
    handles = gen.admissible_handles(K)
    digest = hashlib.sha256(repr(handles).encode()).hexdigest()
    assert (len(handles), digest) == HANDLES.get(
        name, (0, hashlib.sha256(b"[]").hexdigest()))
    assert gen.find_admissible_handle(K) == (handles[0] if handles else None)


def _handles_by_full_check(K):
    """The handles found by running ``_handle_check`` on every map of
    every disjoint facet pair."""
    candidates = (
        (s1, s2, dict(zip(s1, image)))
        for s1, s2 in itertools.combinations(K.canonical_facets(), 2)
        if not set(s1) & set(s2)
        for image in itertools.permutations(s2)
    )
    return [(s1, s2, tuple(sorted(psi.items())))
            for (s1, s2, psi), _ in moves._passing(moves._handle_check, K, candidates)]


@pytest.mark.parametrize("n", range(9, 17))
def test_handle_sites_skip_only_maps_the_full_check_rejects(n):
    K = gen.staircase_sphere(n)
    assert gen.admissible_handles(K) == _handles_by_full_check(K)


def test_no_handle_glues_two_components():
    U = _site_input("two_simplices", None)
    assert gen.admissible_handles(U) == []
    s1, s2 = (0, 1, 2, 3), (5, 6, 7, 8)
    with pytest.raises(MoveError, match="one component"):
        moves.handle_addition(U, s1, s2, dict(zip(s1, s2)))


# ------------------------------------------------- replay checks the record


# Each derived record key with the kinds that derive it.
DERIVED = [
    ("edge", ("Bistellar1", "EdgeFold")),
    ("triangle", ("Bistellar2", "TwoFacetsContract")),
    ("degree", ("EdgeContract",)),
    ("homeomorphic", ("EdgeContract",)),
    ("facet", ("FacetUnsubdivide",)),
    ("moebius_edge", ("EdgeUnfold",)),
    ("split_pair", ("EdgeUnfold",)),
]


def test_derived_keys_are_the_schemas_derived_keys():
    listed = {(kind, key) for key, kinds in DERIVED for kind in kinds}
    assert listed == {(kind, p.key) for kind, m in moves.MOVES.items()
                      for p in m.params if p.role == moves.DERIVED}


def _tampered(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value[:-1] + (value[-1] + 100,)


@pytest.mark.parametrize("key, kinds", DERIVED)
def test_tampered_derived_value_fails_replay_at_its_move(key, kinds, corpus):
    hits = 0
    for tr in corpus:
        for i, (tag, rec) in enumerate(tr.forward_moves):
            if rec.kind not in kinds:
                continue
            params = tuple((k, _tampered(v) if k == key else v)
                           for k, v in rec.params)
            bad = moves.MoveRecord(rec.kind, params, rec.g2_delta)
            fwd = tr.forward_moves[:i] + ((tag, bad),) + tr.forward_moves[i + 1:]
            text = reducer.format_trace(
                reducer.ConstructionTrace(tr.seeds, fwd, tr.claimed_fcounts,
                                          tr.claimed_g2))
            with pytest.raises(ReplayError) as ei:
                reducer.replay(reducer.parse_trace(text))
            assert ei.value.index == i
            hits += 1
    assert hits > 0


def test_replay_rejects_a_fold_edge_the_fold_does_not_have(fx):
    text = reducer.format_trace(reducer.reduce_complex(fx("folded_g2_3")).trace)
    assert "edge=(0,1) g2_delta=3" in text
    with pytest.raises(ReplayError) as ei:
        reducer.replay(reducer.parse_trace(text.replace("edge=(0,1)", "edge=(98,99)")))
    assert ei.value.index == 5
    for shapeless in ("(0,1,2)", "true", "false", "77"):
        with pytest.raises(TraceFormatError):
            reducer.parse_trace(text.replace("edge=(0,1)", f"edge={shapeless}"))


def test_apply_record_wants_the_schema_keys(fx):
    K = fx("boundary4simplex")
    _K2, rec = moves.facet_subdivide(K, (0, 1, 2, 3))
    for params in (rec.params[:1], rec.params + (("extra", 1),), rec.params[::-1]):
        with pytest.raises(moves.MoveError):
            moves.apply_record(K, moves.MoveRecord(rec.kind, params, 0))


# ----------------------------------------------- params decoded by schema


MALFORMED = [
    ("sigma2=(23,24,25,26)", "sigma2=5"),
    ("sigma2=(23,24,25,26)", "sigma2=(23,24,25,(1,))"),
    ("psi=((8,23),", "psi=((8,23,1),"),
    ("psi=((8,23),(20,24),(21,25),(22,26)) g2_delta=0",
     "psi=((8,23),(20,24),(21,25),(22,26)) extra=1 g2_delta=0"),
]


@pytest.mark.parametrize("old, new", MALFORMED)
def test_malformed_param_is_a_format_error(old, new, fx, tmp_path, capsys):
    text = reducer.format_trace(reducer.reduce_complex(fx("folded_g2_3")).trace)
    assert old in text
    bad = text.replace(old, new, 1)
    with pytest.raises(TraceFormatError):
        reducer.parse_trace(bad)
    tracefile = tmp_path / "bad.trace"
    tracefile.write_text(bad)
    assert cli.main(["replay", str(tracefile)]) == 2
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize("value", [
    "7", "+7", "07", "(7)", "((7))", "(" * 500, "1e3", "'7'", "true",
    "(1,2,3,4,)", "(1, 2,3,4)", "(-0,1,2,3)", "(01,1,2,3)", f"({'9' * 5000},1,2,3)",
])
def test_non_canonical_values_are_format_errors(value):
    text = (
        "trace seeds=1 result=6,14,16,8 g2=0\n"
        "seed 0\n0 1 2 3\n0 1 2 4\n0 1 3 4\n0 2 3 4\n1 2 3 4\nend\n"
        f"move component=0 kind=FacetSubdivide facet={value} fresh=5 g2_delta=0\n"
    )
    with pytest.raises(TraceFormatError):
        reducer.parse_trace(text)
    good = text.replace(f"facet={value}", "facet=(0,1,2,3)")
    assert reducer.format_trace(reducer.parse_trace(good)) == good


# ----------------------------------------------------- the walk's fast path


def _singular_in_scope(K, g2_cap):
    """Whether K has singular vertices; None when K leaves the walk's
    scope.  The full check: the walk's scope rule with the singular map
    of every face of ``K`` rechecked by the reference ``normal_update``,
    as a move from the empty complex."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(moves, "singular_after", lambda _K, K2, _rec: normal_update(_K, K2, {}))
        sing = gen._scope_update(SimplicialComplex(()), K, None, g2_cap)
    return None if sing is None else bool(sing)


@pytest.mark.parametrize("seed, fold", WALKS)
def test_walk_singular_flag_matches_full_validation(seed, fold):
    tr = _walk(seed, fold).trace
    state = tr.seeds[0]
    for _tag, rec in tr.forward_moves:
        state = moves.apply_record(state, rec)
        flag = _singular_in_scope(state, 4 if fold else 9)
        assert flag == bool(complexes.validate_normal(state).singular_vertices)


# --------------------------------------------- only package errors are caught


def test_non_package_error_in_surface_propagates(fx, monkeypatch):
    def boom(self, triangles):
        raise RuntimeError("boom")

    CP = fx("cross_polytope")
    host, _ = moves.bistellar_one(CP, moves.bistellar_one_sites(CP)[0][0])
    assert moves.insertion_sites(host)
    # each complex memoises its link classes: the calls get cold copies
    CP, host = (SimplicialComplex(K.facets) for K in (CP, host))
    # the search's keys call a link a sphere off its face counts and
    # build a Surface only for the others, such as these RP2 links
    folded = SimplicialComplex(fx("folded_g2_3").facets)
    monkeypatch.setattr(surfaces.Surface, "__init__", boom)
    for call in (
        lambda: complexes.validate_normal(CP),
        lambda: complexes.find_isomorphism(folded, folded),
        lambda: moves.contract_edge(CP, (0, 2)),
        lambda: moves.insertion_sites(host),
    ):
        with pytest.raises(RuntimeError):
            call()

