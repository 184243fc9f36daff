"""Generic rigidity ranks and the two lower bounds on g2."""

import itertools

import pytest

from pseudoform import rigidity
from pseudoform.errors import DimensionError
from pseudoform.generators import boundary_simplex, cross_polytope


def test_complete_graph_k5_is_rigid_in_dim4():
    edges = list(itertools.combinations(range(5), 2))
    v = rigidity.rigidity_rank(range(5), edges, dim=4)
    assert v.rank == 10
    assert v.expected_full_rank == 10
    assert v.is_generically_rigid
    assert v.edge_excess == 0


def test_path_graph_is_floppy():
    # a tree on 6 vertices has rank 5 no matter the embedding
    edges = [(i, i + 1) for i in range(5)]
    v = rigidity.rigidity_rank(range(6), edges, dim=4)
    assert v.rank == 5
    assert not v.is_generically_rigid
    assert v.expected_full_rank == 4 * 6 - 10


def test_cross_polytope_skeleton_excess_equals_g2():
    CP = cross_polytope()
    v = rigidity.complex_rigidity(CP)
    assert v.graph_size == (8, 24)
    assert v.rank == 4 * 8 - 10 == 22
    assert v.is_generically_rigid
    assert v.edge_excess == CP.f_vector().g2 == 2


def test_boundary_simplex_verdict_string():
    v = rigidity.complex_rigidity(boundary_simplex())
    s = str(v)
    assert "V=5 E=10" in s
    assert "rank=10/10" in s
    assert "rigid" in s and "not-rigid" not in s
    assert "excess=0" in s


def test_rank_deterministic_for_fixed_seed():
    CP = cross_polytope()
    a = rigidity.complex_rigidity(CP, seed=7)
    b = rigidity.complex_rigidity(CP, seed=7)
    assert a == b


def test_too_few_vertices_raises():
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(4), [(0, 1)], dim=4)


def test_bad_edge_raises():
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(6), [(0, 9)], dim=4)
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(6), [(0, 0)], dim=4)


def test_dimension_below_one_raises():
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(6), [(0, 1)], dim=0)
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(6), [(0, 1)], dim=-1)


def test_vertices_not_iterable_raises():
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(5, [(0, 1)])


def test_dimension_as_text_raises():
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(6), [(0, 1)], dim="4")


def test_trials_as_text_raises():
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(6), [(0, 1)], trials="3")


def test_fractional_dimension_raises():
    with pytest.raises(DimensionError):
        rigidity.rigidity_rank(range(6), [(0, 1)], dim=2.5)


def test_non_pair_edge_raises():
    for edges in ([5], [None], [(0, 1, 2)], [(0,)], [(0, "a")], [([0], [1])]):
        with pytest.raises(DimensionError):
            rigidity.rigidity_rank(range(6), edges, dim=4)


def test_star_bound_on_fixtures(fx):
    for name in ("cross_polytope", "folded_g2_3", "folded_g2_4"):
        K = fx(name)
        for v in K.vertices:
            assert rigidity.check_star_bound(K, v)


def test_cone_bound_counts_external_edges(fx):
    # antipode pairs of the cross-polytope are complex non-edges, so
    # no link sees an external edge: n = 0 at every vertex.
    CP = cross_polytope()
    for v in CP.vertices:
        n, holds = rigidity.check_cone_augmented_bound(CP, v)
        assert n == 0 and holds

    # at a singular vertex of the folded fixture the link is an RP2
    # with g2 = 3 = g2(K); the bound still holds with n = 0.
    F = fx("folded_g2_3")
    n, holds = rigidity.check_cone_augmented_bound(F, 0)
    assert holds
    assert F.f_vector().g2 >= 3 + n


def test_external_link_edges_listed_sorted(fx):
    F = fx("folded_g2_3")
    for v in F.vertices:
        ext = rigidity.external_link_edges(F, v)
        assert ext == sorted(ext, key=sorted)
        for e in ext:
            assert e in F.faces(1)
            assert not F.link((v,)).contains_face(e)
