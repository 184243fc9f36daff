import itertools

import pytest

from pseudoform.errors import CycleError, NotSurfaceError
from pseudoform.surfaces import (
    ANNULUS,
    MOEBIUS,
    RP2,
    SPHERE,
    TORUS,
    Surface,
    classify_surface,
    cycle_cut,
    missing_triangle_neighborhood,
    surface_g2,
)

TETRA = list(itertools.combinations(range(4), 3))


def octahedron():
    pairs = [(0, 1), (2, 3), (4, 5)]
    return [t for t in itertools.product(*pairs)]


def torus7():
    tris = [((i % 7), (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    tris += [((i % 7), (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return tris


def test_classify_sphere_and_torus():
    cls = classify_surface(TETRA)
    assert cls.kind == SPHERE and cls.euler_characteristic == 2
    assert cls.orientable
    assert classify_surface(octahedron()).kind == SPHERE
    cls = classify_surface(torus7())
    assert cls.kind == TORUS and cls.euler_characteristic == 0
    assert cls.orientable


def test_classify_projective_plane(rp2_surface):
    cls = classify_surface(rp2_surface)
    assert cls.kind == RP2
    assert cls.euler_characteristic == 1
    assert not cls.orientable


def test_surface_g2_values(rp2_surface):
    assert surface_g2(TETRA) == 0
    assert surface_g2(rp2_surface) == 3
    assert surface_g2(torus7()) == 6


def test_not_a_surface():
    with pytest.raises(NotSurfaceError):
        Surface([(0, 1, 2)])  # open disc, boundary edges
    with pytest.raises(NotSurfaceError):
        Surface(TETRA + [(0, 1, 4)])  # edge in three triangles
    with pytest.raises(NotSurfaceError):
        Surface([])
    with pytest.raises(NotSurfaceError):
        Surface(TETRA + [(5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)])


def test_equator_cut_gives_two_discs():
    S = Surface(octahedron())
    rep = cycle_cut(S, (2, 4, 3, 5))
    assert rep.is_cycle_in_surface
    assert rep.separates
    assert rep.neighborhood == ANNULUS
    assert rep.components_after_cut == 2
    assert rep.n_boundary_circles == 2
    assert rep.side_descriptions == ("disc", "disc")
    star0 = frozenset(frozenset(t) for t in octahedron() if 0 in t)
    assert star0 in rep.sides


def test_face_triangle_cut():
    rep = cycle_cut(Surface(TETRA), (0, 1, 2))
    assert rep.separates
    assert frozenset([frozenset((0, 1, 2))]) in rep.sides


def test_one_sided_cycle_in_projective_plane(rp2_surface):
    empty = next(
        t for t in itertools.combinations(sorted(rp2_surface.vertices), 3)
        if frozenset(t) not in rp2_surface.triangles
    )
    rep = cycle_cut(rp2_surface, empty)
    assert not rep.separates
    assert rep.neighborhood == MOEBIUS
    assert rep.n_boundary_circles == 1
    assert rep.components_after_cut == 1


def test_cycle_errors():
    S = Surface(octahedron())
    with pytest.raises(CycleError):
        cycle_cut(S, (0, 2))
    with pytest.raises(CycleError):
        cycle_cut(S, (0, 1, 2))  # 0 and 1 are antipodal, not an edge
    with pytest.raises(CycleError):
        cycle_cut(S, (0, 2, 0, 3))
    with pytest.raises(CycleError):
        cycle_cut(S, (0, 2, 9))


def test_missing_triangle_neighborhood_on_fold(fx):
    K = fx("folded_g2_3")
    quad = next(iter(K.missing_faces(3)))
    kinds = []
    for x in sorted(quad):
        rep = missing_triangle_neighborhood(K, x, quad - {x})
        kinds.append(rep.neighborhood)
    assert kinds.count(MOEBIUS) in (0, 2, 4)


def test_sphere_missing_tetra_corners_all_separate(fx):
    # Sphere links only contain two-sided cycles, so every corner of a
    # missing tetrahedron in a stacked sphere has an annulus collar.
    K = fx("foldable_sphere")
    quads = K.missing_faces(3)
    assert quads, "block interfaces should be missing tetrahedra"
    for quad in quads:
        for x in sorted(quad):
            rep = missing_triangle_neighborhood(K, x, quad - {x})
            assert rep.separates and rep.neighborhood == ANNULUS


@pytest.mark.parametrize("call, error", [
    (lambda K: Surface(5), NotSurfaceError),
    (lambda K: Surface([5]), NotSurfaceError),
    (lambda K: Surface([[[1], 2, 3]]), NotSurfaceError),
    (lambda K: Surface([(1, "a", 2)]), NotSurfaceError),
    (lambda K: classify_surface(None), NotSurfaceError),
    (lambda K: surface_g2(5), NotSurfaceError),
    (lambda K: cycle_cut(5, (1, 2, 3)), NotSurfaceError),
    (lambda K: missing_triangle_neighborhood(K, 0, 5), CycleError),
    (lambda K: missing_triangle_neighborhood(K, 0, [[1], 2, 3]), CycleError),
])
def test_arguments_that_are_not_triangles_are_refused(fx, call, error):
    with pytest.raises(error):
        call(fx("boundary4simplex"))
