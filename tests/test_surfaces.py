import itertools

import pytest

from pseudoform import moves
from pseudoform.errors import CycleError, NotSurfaceError
from pseudoform.surfaces import (
    RP2,
    SPHERE,
    TORUS,
    Surface,
    _cut_sides,
    _describe_piece,
    classify_surface,
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


def ring(cycle):
    """The edges of a cycle of vertices, wrapping around."""
    return [frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])]


def test_equator_cut_gives_two_discs():
    S = Surface(octahedron())
    sides = _cut_sides(S.triangles, ring((2, 4, 3, 5)))
    assert tuple(map(_describe_piece, sides)) == ("disc", "disc")
    star0 = frozenset(frozenset(t) for t in octahedron() if 0 in t)
    assert star0 in sides


def test_face_triangle_cut():
    sides = _cut_sides(Surface(TETRA).triangles, ring((0, 1, 2)))
    assert sides[0] == frozenset([frozenset((0, 1, 2))])
    assert _describe_piece(sides[1]) == "disc"


def test_one_sided_cycle_in_projective_plane(rp2_surface):
    empty = next(
        t for t in itertools.combinations(sorted(rp2_surface.vertices), 3)
        if frozenset(t) not in rp2_surface.triangles
    )
    assert _cut_sides(rp2_surface.triangles, ring(empty)) is None
    # its neighbourhood, the triangles that meet it, is a Moebius strip
    near = [t for t in rp2_surface.triangles if len(t & frozenset(empty)) >= 2]
    assert _describe_piece(near) == "moebius-strip"


def test_fold_corners_do_not_separate_in_pairs(fx):
    # a corner whose link the opposite triangle does not separate has an
    # RP^2 link, in which that triangle's boundary is one-sided
    K = fx("folded_g2_3")
    quad = next(iter(K.missing_faces(3)))
    cut = [moves._link_sides(K, x, quad - {x}) for x in sorted(quad)]
    assert cut.count(None) in (0, 2, 4)


def test_sphere_missing_tetra_corners_all_separate(fx):
    # Sphere links only contain two-sided cycles, so every corner of a
    # missing tetrahedron in a stacked sphere cuts its link into two discs.
    K = fx("foldable_sphere")
    quads = K.missing_faces(3)
    assert quads, "block interfaces should be missing tetrahedra"
    for quad in quads:
        for x in sorted(quad):
            sides = moves._link_sides(K, x, quad - {x})
            assert tuple(map(_describe_piece, sides)) == ("disc", "disc")


@pytest.mark.parametrize("call, error", [
    (lambda K: Surface(5), NotSurfaceError),
    (lambda K: Surface([5]), NotSurfaceError),
    (lambda K: Surface([[[1], 2, 3]]), NotSurfaceError),
    (lambda K: Surface([(1, "a", 2)]), NotSurfaceError),
    (lambda K: classify_surface(None), NotSurfaceError),
    (lambda K: surface_g2(5), NotSurfaceError),
    (lambda K: classify_surface([(1, 2)]), NotSurfaceError),
    (lambda K: moves.expand_edge(K, 0, 5), CycleError),
    (lambda K: moves.expand_edge(K, 0, [[1], 2, 3]), CycleError),
])
def test_arguments_that_are_not_triangles_are_refused(fx, call, error):
    with pytest.raises(error):
        call(fx("boundary4simplex"))
