import itertools

import pytest

from pseudoform import moves
from pseudoform.complexes import (
    SimplicialComplex,
    are_isomorphic,
    total_g2,
    validate_normal,
)
from pseudoform.errors import CycleError, MissingFaceError, MoveError
from pseudoform.generators import (
    boundary_simplex,
    cross_polytope,
    spine_path_sphere,
    staircase_sphere,
)


def singulars(K):
    return sorted(v for v, _ in validate_normal(K).singular_vertices)


@pytest.fixture()
def SB():
    K, _ = moves.facet_subdivide(boundary_simplex(), (0, 1, 2, 3), fresh=5)
    return K


# ---------------- bistellar moves ----------------


def test_bistellar_roundtrip():
    CP = cross_polytope()
    K1, rec1 = moves.bistellar_one(CP, (0, 2, 4))
    assert rec1.g2_delta == 1
    assert total_g2(K1) == total_g2(CP) + 1
    edge = rec1.get("edge")
    K2, rec2 = moves.bistellar_two(K1, edge)
    assert rec2.g2_delta == -1
    assert K2 == CP


def test_bistellar_one_needs_missing_apex_edge():
    B = boundary_simplex()
    with pytest.raises(MoveError):
        moves.bistellar_one(B, (0, 1, 2))


def test_bistellar_two_needs_degree_three(SB):
    with pytest.raises(MoveError):
        moves.bistellar_two(SB, (0, 4))  # degree 4 after the subdivision
    with pytest.raises(MissingFaceError):
        moves.bistellar_two(SB, (4, 5))


# ---------------- contraction and expansion ----------------


def test_contract_expand_roundtrip(SB):
    K, rec = moves.contract_edge(SB, (3, 5), fresh=9)
    assert rec.get("fresh") == 9
    assert rec.get("homeomorphic") is True
    assert rec.g2_delta == -(rec.get("degree") - 3)
    assert are_isomorphic(K, boundary_simplex())


def test_contract_link_condition_blocks(SB):
    # 1 and 2 share the non-link edge {0,3} through the old facet
    with pytest.raises(MoveError):
        moves.contract_edge(SB, (1, 2))


def test_expand_edge_then_contract_back():
    B = boundary_simplex()
    K, rec = moves.expand_edge(B, 0, (1, 2, 3), u_side=0, apexes=(5, 6))
    assert rec.g2_delta == 0  # three-cycle expansion creates a degree-3 edge
    assert K.contains_face((5, 6))
    assert len(K.vertices) == 6
    back, _ = moves.contract_edge(K, (5, 6), fresh=0)
    assert back == B


def test_expand_requires_fresh_labels(SB):
    with pytest.raises(MoveError):
        moves.expand_edge(SB, 5, (0, 1, 2), apexes=(0, 7))


@pytest.mark.parametrize("given", [(1,), (6, 7, 8), 6])
def test_fresh_labels_not_a_pair_are_move_errors(given, SB, fx):
    with pytest.raises(MoveError, match="expected two fresh labels"):
        moves.expand_edge(SB, 5, (0, 1, 2), apexes=given)
    K0, _ = moves.bistellar_one(cross_polytope(), (0, 2, 4))
    w, tri = moves.insertion_sites(K0)[0]
    with pytest.raises(MoveError, match="expected two fresh labels"):
        moves.insert_two_facets(K0, w, tri, apexes=given)
    F = fx("folded_g2_3")
    with pytest.raises(MoveError, match="expected two fresh labels"):
        moves.edge_unfold(F, moves.detect_unfold(F).tetra, fresh=given)


@pytest.mark.parametrize("cycle", [None, 5, [[0], [1], [2]]])
def test_expand_with_no_label_cycle_is_a_cycle_error(cycle, SB):
    with pytest.raises(CycleError):
        moves.expand_edge(SB, 5, cycle)


# ---------------- two-facets moves ----------------


def test_insert_then_contract_roundtrip():
    # a bistellar 1-move opens missing triangles in the cross-polytope
    K0, _ = moves.bistellar_one(cross_polytope(), (0, 2, 4))
    sites = moves.insertion_sites(K0)
    assert sites, "expected insertion sites through the new missing triangles"
    w, tri = sites[0]
    K, rec = moves.insert_two_facets(K0, w, tri, apexes=(10, 11))
    assert rec.g2_delta == -1
    assert total_g2(K) == total_g2(K0) - 1
    back, rec2 = moves.contract_two_facets(K, 10, 11, fresh=w)
    assert rec2.g2_delta == 1
    assert back == K0


def test_insertion_needs_disc_sides(fx):
    # every candidate site in a folded complex hits a one-sided cycle
    F = fx("folded_g2_3")
    assert moves.insertion_sites(F) == []
    tried = 0
    for t in F.missing_faces(2):
        tt = tuple(sorted(t))
        for w in sorted(F.vertices - t):
            edges_ok = all(
                F.contains_face(frozenset(e) | {w})
                for e in itertools.combinations(tt, 2)
            )
            if not edges_ok:
                continue
            tried += 1
            with pytest.raises(MoveError):
                moves.insert_two_facets(F, w, tt, apexes=(50, 51))
    assert tried > 0


# ---------------- gluing moves ----------------


def test_connected_sum_counts():
    A = boundary_simplex()
    B = boundary_simplex(base=10)
    psi = {0: 10, 1: 11, 2: 12, 3: 13}
    K, rec = moves.connected_sum(A, (0, 1, 2, 3), B, (10, 11, 12, 13), psi)
    assert rec.g2_delta == 0
    assert K.f_vector().as_tuple() == (6, 14, 16, 8)
    assert total_g2(K) == 0


def test_connected_sum_in_requires_two_components():
    A = boundary_simplex()
    with pytest.raises(MoveError):
        moves.connected_sum_in(A, (0, 1, 2, 3), (0, 1, 2, 4), {0: 0, 1: 1, 2: 2, 3: 4})


def test_handle_addition_delta_and_admissibility():
    ST = staircase_sphere(9)
    psi = {0: 9, 1: 10, 2: 11, 3: 12}
    K, rec = moves.handle_addition(ST, (0, 1, 2, 3), (9, 10, 11, 12), psi)
    assert rec.g2_delta == 10
    assert total_g2(K) == 10
    assert singulars(K) == []
    # too-close facets are refused with a path witness
    with pytest.raises(MoveError) as ei:
        moves.handle_addition(ST, (0, 1, 2, 3), (1, 2, 3, 5),
                              {0: 1, 1: 2, 2: 3, 3: 5})
    assert "path" in str(ei.value)


def test_edge_fold_makes_two_projective_links():
    PS = spine_path_sphere(6)
    K, rec = moves.edge_fold(PS, (0, 1, 2, 3), (0, 1, 7, 9),
                             {0: 0, 1: 1, 2: 7, 3: 9})
    assert rec.g2_delta == 3
    assert total_g2(K) == 3
    assert singulars(K) == [0, 1]
    rep = validate_normal(K)
    assert all(cls.kind == "RP2" for _, cls in rep.singular_vertices)


def test_edge_fold_rejects_short_path():
    PS = spine_path_sphere(6)
    with pytest.raises(MoveError) as ei:
        moves.edge_fold(PS, (0, 1, 2, 3), (0, 1, 7, 9),
                        {0: 0, 1: 1, 2: 9, 3: 7})
    assert "avoids the folding edge" in str(ei.value)


def test_edge_fold_requires_shared_edge():
    PS = spine_path_sphere(6)
    # these two facets share a triangle, not a single edge
    with pytest.raises(MoveError):
        moves.edge_fold(PS, (0, 1, 2, 3), (0, 1, 2, 4), {0: 0, 1: 1, 2: 2, 3: 4})


# ---------------- unfold ----------------


def test_detect_and_unfold_restores_sphere(fx):
    F = fx("folded_g2_3")
    site = moves.detect_unfold(F)
    assert site is not None
    assert set(site.moebius_edge) == {0, 1}
    K, rec = moves.edge_unfold(F, site.tetra, fresh=(20, 21))
    assert rec.g2_delta == -3
    assert singulars(K) == []
    assert are_isomorphic(K, spine_path_sphere(6))


def test_unfold_needs_fold_witness(fx):
    K = fx("stacked_sphere_8")
    assert moves.detect_unfold(K) is None
    quad = next(iter(K.missing_faces(3)))
    with pytest.raises(MoveError):
        moves.edge_unfold(K, quad)


# ---------------- subdivision ----------------


def test_subdivide_roundtrip():
    B = boundary_simplex()
    K, rec = moves.facet_subdivide(B, (0, 1, 2, 3), fresh=5)
    assert rec.g2_delta == 0
    assert K.f_vector().as_tuple() == (6, 14, 16, 8)
    back, rec2 = moves.facet_unsubdivide(K, 5)
    assert back == B
    assert rec2.get("facet") == (0, 1, 2, 3)


def test_unsubdivide_rejects_filled_tetra():
    B = boundary_simplex()
    with pytest.raises(MoveError):
        moves.facet_unsubdivide(B, 0)  # degree-4 but surrounding quad present


# ---------------- records and replay ----------------


def test_apply_record_reproduces_moves(SB):
    K, rec = moves.contract_edge(SB, (3, 5), fresh=9)
    again = moves.apply_record(SB, rec)
    assert again == K


def test_apply_record_rejects_tampered_delta(SB):
    K, rec = moves.contract_edge(SB, (3, 5), fresh=9)
    bad = moves.MoveRecord(rec.kind, rec.params, rec.g2_delta + 1)
    with pytest.raises(MoveError):
        moves.apply_record(SB, bad)


def test_record_string_shape():
    B = boundary_simplex()
    _, rec = moves.facet_subdivide(B, (0, 1, 2, 3), fresh=5)
    s = str(rec)
    assert "FacetSubdivide" in s and "facet=(0, 1, 2, 3)" in s
    assert "fresh=5" in s and "g2 +0" in s


# ---------------- enumerators ----------------


def test_site_enumerators_on_subdivided_sphere(SB):
    assert moves.bistellar_two_sites(SB) == []
    b1 = moves.bistellar_one_sites(SB)
    assert all(len(t) == 3 for t, _ in b1)
    contract = moves.contractible_edges(SB)
    assert ((3, 5), 3) in contract
    assert ((1, 2), 4) not in contract  # link condition fails there
    assert moves.insertion_sites(SB) == []  # no missing triangles at all
    # both cone points sit over boundary-of-simplex links here
    subs = moves.unsubdividable_vertices(SB)
    assert subs == [(4, (0, 1, 2, 3)), (5, (0, 1, 2, 3))]


def test_contraction_pair_sites():
    K0, _ = moves.bistellar_one(cross_polytope(), (0, 2, 4))
    w, tri = moves.insertion_sites(K0)[0]
    K, _ = moves.insert_two_facets(K0, w, tri, apexes=(10, 11))
    pairs = moves.contraction_pair_sites(K)
    assert (10, 11) in [(u, v) for u, v, _t in pairs]


# ---------------- arguments that are not labels ----------------


@pytest.mark.parametrize("call", [
    lambda K: moves.bistellar_one(K, 5),
    lambda K: moves.bistellar_two(K, 5),
    lambda K: moves.contract_edge(K, 5),
    lambda K: moves.facet_subdivide(K, 5),
    lambda K: moves.insert_two_facets(K, 0, None),
    lambda K: moves.edge_unfold(K, None),
    lambda K: moves.expand_edge(K, [0], (1, 2, 3)),
    lambda K: moves.facet_unsubdivide(K, [5]),
    lambda K: moves.contract_two_facets(K, [0], 4),
], ids=["bistellar_one", "bistellar_two", "contract_edge", "facet_subdivide",
        "insert_two_facets", "edge_unfold", "expand_edge", "facet_unsubdivide",
        "contract_two_facets"])
def test_faces_that_are_not_labels_are_move_errors(call):
    with pytest.raises(MoveError, match="expected a face"):
        call(staircase_sphere(3))


GLUINGS = {
    "handle_addition": lambda psi: moves.handle_addition(
        staircase_sphere(9), (0, 1, 2, 3), (9, 10, 11, 12), psi),
    "connected_sum_in": lambda psi: moves.connected_sum_in(
        SimplicialComplex(boundary_simplex().facets | boundary_simplex(base=10).facets),
        (0, 1, 2, 3), (10, 11, 12, 13), psi),
    "edge_fold": lambda psi: moves.edge_fold(
        spine_path_sphere(6), (0, 1, 2, 3), (0, 1, 7, 9), psi),
}


# labels that are not integers, among them a float and a numeric string
# that ``int()`` would have truncated and parsed
@pytest.mark.parametrize("psi", [None, [(0, 1)], {0: "a"},
                                 {0: 9.7, 1: 10, 2: 11, 3: "12"}])
@pytest.mark.parametrize("kind", sorted(GLUINGS))
def test_gluing_maps_that_are_not_label_dicts_are_move_errors(kind, psi):
    with pytest.raises(MoveError, match="gluing map must be a dict of labels"):
        GLUINGS[kind](psi)
