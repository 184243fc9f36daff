"""Seed families, admissibility scans, and random-walk generation."""

import pytest

from pseudoform import moves, reducer
from pseudoform.complexes import total_g2
from pseudoform.complexes import validate_normal
from pseudoform import generators as gen
from pseudoform.errors import PseudoformError, SpecError


# ------------------------------------------------------------- families


def test_boundary_simplex_f_vector():
    B = gen.boundary_simplex()
    assert B.f_vector().as_tuple() == (5, 10, 10, 5)
    assert gen.boundary_simplex(base=7).vertices == frozenset(range(7, 12))


def test_spine_sphere_shape():
    PS = gen.spine_path_sphere(6)
    assert PS.f_vector().as_tuple() == (10, 30, 40, 20)
    assert total_g2(PS) == 0
    # the spine edge keeps high degree: one interior facet per block
    assert PS.edge_degree((0, 1)) == 8


def test_staircase_shape():
    ST = gen.staircase_sphere(5)
    assert ST.f_vector().f0 == 9
    assert total_g2(ST) == 0
    assert validate_normal(ST).is_normal_closed


def test_cross_polytope_shape():
    CP = gen.cross_polytope()
    assert CP.f_vector().as_tuple() == (8, 24, 32, 16)
    assert total_g2(CP) == 2


@pytest.mark.parametrize("blocks", [0, -3])
def test_families_reject_tiny_block_counts(blocks):
    with pytest.raises(ValueError):
        gen.spine_path_sphere(blocks)
    with pytest.raises(ValueError):
        gen.staircase_sphere(blocks)


def _stacked(blocks):
    return gen.generate(gen.GeneratorSpec(gen.STACKED_SPHERE, (("blocks", blocks),)))


SIZED = {
    "spine": gen.spine_path_sphere,
    "staircase": gen.staircase_sphere,
    "stacked": _stacked,
}


@pytest.mark.parametrize("family", sorted(SIZED))
@pytest.mark.parametrize("blocks", ["3", 3.0, None, True, -1, 0, gen.MAX_BLOCKS + 1, 10**11])
def test_block_counts_are_checked_before_anything_is_built(family, blocks, monkeypatch):
    def refuse(base=0):
        raise AssertionError("a block was built")

    monkeypatch.setattr(gen, "boundary_simplex", refuse)
    with pytest.raises(SpecError) as info:
        SIZED[family](blocks)
    assert isinstance(info.value, PseudoformError)
    assert isinstance(info.value, ValueError)
    assert "blocks must be" in str(info.value)


def test_the_largest_block_count_is_accepted():
    assert len(gen.staircase_sphere(gen.MAX_BLOCKS).facets) == 3 * gen.MAX_BLOCKS + 2


@pytest.mark.parametrize("text", ["RandomMoves(seed=x)", "StackedSphere(1.5)", 5, None])
def test_bad_specs_are_package_errors(text):
    with pytest.raises(SpecError):
        gen.parse_generator_spec(text)


# ------------------------------------------------------- admissibility


def test_spine_six_has_three_folds():
    # five matchings pass the 2-path locality test, but two of those
    # would split the link circle of the folded edge; the move refuses
    # them, leaving three
    PS = gen.spine_path_sphere(6)
    folds = gen.admissible_folds(PS)
    assert len(folds) == 3
    s1, s2, pairs = gen.find_admissible_fold(PS)
    K, rec = moves.edge_fold(PS, s1, s2, dict(pairs))
    assert rec.g2_delta == 3
    rep = validate_normal(K)
    assert sorted(v for v, _c in rep.singular_vertices) == [0, 1]


def test_no_folds_on_boundary_simplex():
    assert gen.admissible_folds(gen.boundary_simplex()) == []
    assert gen.find_admissible_fold(gen.boundary_simplex()) is None


def test_handle_needs_nine_staircase_blocks():
    # at 8 blocks every facet bijection leaves some vertex too close
    assert gen.find_admissible_handle(gen.staircase_sphere(8)) is None
    site = gen.find_admissible_handle(gen.staircase_sphere(9))
    assert site is not None
    s1, s2, pairs = site
    assert all(x not in s2 for x in s1)


# ------------------------------------------------------------ spec text


def test_parse_spec_positional_and_keyword():
    sp = gen.parse_generator_spec("StackedSphere(4)")
    assert sp.kind == "StackedSphere" and sp.get("blocks") == 4
    sp = gen.parse_generator_spec("RandomMoves(seed=7,budget=30,allow_fold=true)")
    assert sp.get("seed") == 7
    assert sp.get("budget") == 30
    assert sp.get("allow_fold") is True
    assert sp.get("g2_cap") == 9  # default preserved


def test_parse_spec_defaults():
    sp = gen.parse_generator_spec("RandomMoves")
    assert sp.get("seed") == gen.DEFAULT_SEED if hasattr(gen, "DEFAULT_SEED") else True
    assert sp.get("budget") == 20
    assert sp.get("allow_fold") is False


def test_spec_round_trips_through_str():
    for text in (
        "BoundarySimplex",
        "CrossPolytope",
        "StackedSphere(blocks=5)",
        "RandomMoves(seed=2,budget=40,allow_fold=true,g2_cap=4)",
    ):
        sp = gen.parse_generator_spec(text)
        assert gen.parse_generator_spec(str(sp)) == sp


@pytest.mark.parametrize(
    "bad",
    [
        "Nonsense(3)",
        "StackedSphere(blocks=x)",
        "StackedSphere(wrong=3)",
        "RandomMoves(seed=1,seed=2,extra)",
        "",
    ],
)
def test_parse_spec_rejects(bad):
    with pytest.raises(ValueError):
        gen.parse_generator_spec(bad)


# ------------------------------------------------------------- generate


def test_generate_families_replay():
    for text in ("BoundarySimplex", "CrossPolytope", "StackedSphere(4)"):
        out = gen.generate(gen.parse_generator_spec(text))
        assert not out.stalled
        assert reducer.replay(out.trace) == out.complex


def test_generate_stacked_blocks_count():
    out = gen.generate(gen.parse_generator_spec("StackedSphere(6)"))
    # each glued block contributes one net vertex over the shared facet
    assert out.complex.f_vector().f0 == 4 + 6
    assert total_g2(out.complex) == 0


def test_random_walk_reproducible():
    sp = gen.parse_generator_spec("RandomMoves(seed=5,budget=15)")
    a = gen.generate(sp)
    b = gen.generate(sp)
    assert a.complex == b.complex
    assert reducer.format_trace(a.trace) == reducer.format_trace(b.trace)


def test_random_walk_stays_in_scope():
    for seed in range(6):
        sp = gen.parse_generator_spec(f"RandomMoves(seed={seed},budget=25)")
        out = gen.generate(sp)
        K = out.complex
        rep = validate_normal(K)
        assert rep.is_normal_closed
        assert total_g2(K) <= 9
        assert reducer.replay(out.trace) == K


def test_random_walk_with_folds_reaches_singular():
    sp = gen.parse_generator_spec("RandomMoves(seed=2,budget=40,allow_fold=true,g2_cap=4)")
    out = gen.generate(sp)
    rep = validate_normal(out.complex)
    assert len(rep.singular_vertices) == 2
    assert reducer.replay(out.trace) == out.complex


def test_generate_unknown_kind_raises():
    with pytest.raises(ValueError):
        gen.generate(gen.GeneratorSpec("Mystery", ()))
