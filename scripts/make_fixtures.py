"""Regenerate the frozen fixture files under fixtures/.

Every fixture is produced by a deterministic recipe; rerunning this
script must reproduce the committed bytes exactly.
"""

import pathlib

from pseudoform import generators as gen
from pseudoform import io as pio
from pseudoform import moves
from pseudoform.complexes import validate_normal

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "fixtures"

RP2_SIX = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]


def singulars(K):
    return sorted(v for v, _ in validate_normal(K).singular_vertices)


def folded_three():
    PS = gen.spine_path_sphere(6)
    fold = gen.find_admissible_fold(PS)
    K, _ = moves.edge_fold(PS, fold[0], fold[1], dict(fold[2]))
    return K


def folded_four():
    K3 = folded_three()
    for tri, _apexes in moves.bistellar_one_sites(K3):
        K4, _ = moves.bistellar_one(K3, tri)
        if singulars(K4) == singulars(K3):
            return K4
    raise RuntimeError("no singular-preserving bistellar site found")


def double_fold():
    # Two folded copies glued along facets that pair each
    # projective-plane vertex with a plain one, keeping four
    # singular vertices in the sum.
    A = folded_three()
    B = A.relabeled({i: i + 20 for i in range(10)})
    psi = {0: 22, 1: 23, 2: 20, 4: 24}
    K, _ = moves.connected_sum(A, (0, 1, 2, 4), B, (20, 22, 23, 24), psi)
    return K


def recipes():
    """Fixture file name -> facets, for every file under fixtures/."""
    complexes = {
        "boundary4simplex.txt": gen.boundary_simplex(),
        "stacked_sphere_8.txt": gen.staircase_sphere(4),
        "cross_polytope.txt": gen.cross_polytope(),
        "chain5.txt": gen.staircase_sphere(5),
        "chain9.txt": gen.staircase_sphere(9),
        "foldable_sphere.txt": gen.spine_path_sphere(6),
        "folded_g2_3.txt": folded_three(),
        "folded_g2_4.txt": folded_four(),
        "double_fold_g2_6.txt": double_fold(),
    }
    out = {name: K.facets for name, K in complexes.items()}
    out["rp2_6.txt"] = RP2_SIX
    return out


def main():
    OUT.mkdir(exist_ok=True)
    for name, facets in recipes().items():
        pio.save_facets(OUT / name, facets)
        print(name)


if __name__ == "__main__":
    main()
