import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoform import reducer, rigidity
from pseudoform.complexes import (
    FVector,
    SimplicialComplex,
    are_isomorphic,
    find_isomorphism,
    total_g2,
    validate_normal,
)
from pseudoform.errors import (
    DimensionError,
    MalformedFacetError,
    MissingFaceError,
    PseudoformError,
)
from pseudoform.generators import boundary_simplex, cross_polytope


def test_facet_validation_rejects_bad_input():
    with pytest.raises(MalformedFacetError):
        SimplicialComplex.from_facets([(0, 1, 2)])
    with pytest.raises(MalformedFacetError):
        SimplicialComplex.from_facets([(0, 1, 2, 2)])
    with pytest.raises(MalformedFacetError):
        SimplicialComplex.from_facets([(0, 1, 2, -3)])


def test_boundary_simplex_counts():
    B = boundary_simplex()
    fv = B.f_vector()
    assert fv.as_tuple() == (5, 10, 10, 5)
    assert fv.g2 == 0 and fv.g3 == 0
    assert len(B.faces(0)) == 5
    assert len(B.faces(1)) == 10
    assert B.contains_face((0, 3))
    assert not B.contains_face((0, 5))


def test_fvector_string_is_compact():
    assert str(boundary_simplex().f_vector()) == "f=(5,10,10,5) g2=0 g3=0"
    assert str(cross_polytope().f_vector()) == "f=(8,24,32,16) g2=2 g3=-2"


def test_fvector_from_counts_roundtrip():
    fv = FVector.from_counts(8, 24, 32, 16)
    assert fv.g2 == 2
    assert fv.h[0] == 1 and sum(fv.h) == 16


def test_link_and_star():
    B = boundary_simplex()
    L = B.link((0,))
    assert L.facets == frozenset(
        frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)
    )
    S = B.star((0,))
    assert all(0 in F for F in S.facets)
    assert len(S.facets) == 4


def test_edge_degree_counts_link_vertices():
    B = boundary_simplex()
    assert B.edge_degree((0, 1)) == 3
    CP = cross_polytope()
    assert CP.edge_degree((0, 2)) == 4
    with pytest.raises(MissingFaceError):
        CP.edge_degree((0, 1))  # antipodal, not an edge


def test_missing_faces():
    CP = cross_polytope()
    assert CP.missing_faces(2) == []
    assert CP.missing_faces(3) == []
    B = boundary_simplex()
    assert B.missing_faces(2) == []


def test_connected_components_and_relabel():
    B = boundary_simplex()
    other = B.relabeled({i: i + 10 for i in range(5)})
    U = SimplicialComplex(list(B.facets) + list(other.facets))
    comps = U.connected_components()
    assert len(comps) == 2
    assert total_g2(U) == 0
    assert U.fresh_label() == 15
    with pytest.raises(MalformedFacetError):
        B.relabeled({0: 1})  # collides with existing label


def test_validate_normal_positive(fx):
    rep = validate_normal(fx("foldable_sphere"))
    assert rep.is_normal_closed
    assert rep.singular_vertices == ()


def test_validate_normal_singular(fx):
    rep = validate_normal(fx("folded_g2_3"))
    assert rep.is_normal_closed
    assert [v for v, _ in rep.singular_vertices] == [0, 1]
    assert all(cls.kind == "RP2" for _, cls in rep.singular_vertices)


def test_validate_ridge_failure():
    B = boundary_simplex()
    bad = SimplicialComplex(list(B.facets) + [frozenset((0, 1, 2, 7))])
    rep = validate_normal(bad)
    assert not rep.is_normal_closed
    assert rep.ridge_failures


def test_validate_wedge_has_disconnected_link():
    B = boundary_simplex()
    # second sphere shares exactly the vertex 0
    other = boundary_simplex().relabeled({0: 0, 1: 11, 2: 12, 3: 13, 4: 14})
    W = SimplicialComplex(list(B.facets) + list(other.facets))
    rep = validate_normal(W)
    assert not rep.is_normal_closed
    assert (0,) in rep.disconnected_links


def test_isomorphism_found_and_refused():
    B = boundary_simplex()
    perm = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}
    m = find_isomorphism(B, B.relabeled(perm))
    assert m is not None
    assert are_isomorphic(B, B.relabeled(perm))
    assert not are_isomorphic(B, cross_polytope())


def test_dimension_errors():
    B = boundary_simplex()
    assert B.faces(4) == frozenset()
    with pytest.raises(DimensionError):
        B.missing_faces(0)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(8))))
def test_fvector_is_relabel_invariant(perm):
    CP = cross_polytope()
    mapping = {i: 100 + perm[i] for i in range(8)}
    assert CP.relabeled(mapping).f_vector() == CP.f_vector()


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(8))))
def test_relabeled_complex_is_isomorphic(perm):
    CP = cross_polytope()
    mapping = {i: 100 + perm[i] for i in range(8)}
    assert are_isomorphic(CP, CP.relabeled(mapping))


@pytest.mark.parametrize("call", [
    lambda: find_isomorphism(boundary_simplex(), 5),
    lambda: find_isomorphism(5, boundary_simplex()),
    lambda: reducer.reduce_complex(5),
    lambda: reducer.audit_multi_singular(5),
    lambda: rigidity.complex_rigidity(5),
    lambda: validate_normal(5),
], ids=["find_isomorphism-second", "find_isomorphism-first",
        "reduce_complex", "audit_multi_singular", "complex_rigidity", "validate_normal"])
def test_an_argument_that_is_no_complex_is_a_package_error(call):
    with pytest.raises(PseudoformError) as ei:
        call()
    assert "wants a complex, got 5" in str(ei.value)


@pytest.mark.parametrize("call, error", [
    (lambda K: SimplicialComplex(5), MalformedFacetError),
    (lambda K: SimplicialComplex([5]), MalformedFacetError),
    (lambda K: SimplicialComplex.from_facets(5), MalformedFacetError),
    (lambda K: K.link(5), MalformedFacetError),
    (lambda K: K.edge_degree(5), MalformedFacetError),
    (lambda K: K.contains_face(5), MalformedFacetError),
    (lambda K: K.faces("1"), DimensionError),
    (lambda K: K.faces(1.5), DimensionError),
    (lambda K: K.relabeled(5), MalformedFacetError),
    (lambda K: K.star(5), MalformedFacetError),
], ids=["SimplicialComplex", "SimplicialComplex-row", "from_facets", "link",
        "edge_degree", "contains_face", "faces-text", "faces-float", "relabeled", "star"])
def test_an_argument_of_the_wrong_type_is_a_package_error(call, error):
    with pytest.raises(error):
        call(boundary_simplex())
