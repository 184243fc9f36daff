"""The connected-sum split's one precondition.

``reducer._split_check`` decides where a complex splits, for
``split_at_missing_tetrahedron``, the reducer's split step and the
audit's stripping alike.  This module pins the audit's output, and
compares the split sites and every split or its error with a reference
that writes the corner scan and the cut out in full.
"""

import hashlib
import itertools

import pytest

from pseudoform import generators as gen, moves, reducer, surfaces
from pseudoform.complexes import SimplicialComplex
from pseudoform.errors import MoveError

from conftest import COMPLEX_FIXTURES, FOLD_WALK_SEEDS
from test_component_cut import reference_neighborhood

# sha256 of the audit's (applicable, facts, violations), force off and
# on, for the fixtures, fold walks 0-15 (budget 20, g2 cap 4) and the
# first five handle bodies of staircase_sphere(10).
AUDIT_PINNED = {
    "boundary4simplex": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "b3bc46861678a6db33e150a311b7c399a07d3bcb204238a704b68d4d2c3f1520",
    ),
    "stacked_sphere_8": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "da5649cca3bc5e06f870ece13556db951cfb6c91aeaf88c94e66aabf4a3ac55f",
    ),
    "cross_polytope": (
        "207dccd558f7fa35e0766cdb6b328a2559f37c24b3608461f2a8c89e0b01a233",
        "1e568799501f68938311c463e126fab0a3b3d9e5039a493e151de0664ddfd818",
    ),
    "chain5": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "ab7bc00586df074080ef9fb7f010b0f851a5d8ccea2190f034a602758e305238",
    ),
    "chain9": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "7431108b00ee1798d44f8d4f8d9762729f547cf29c64134568b5c307f798b9d7",
    ),
    "foldable_sphere": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "e7c719dc8c5e2e4072466d209a5871752d584aae2a2ddb1af40305a157325f70",
    ),
    "folded_g2_3": (
        "ad4157b24e74f83cb8b105255cfe5393835304af6652a565f35060f0a8461de2",
        "d65f0f7855c49aa2ded4306f7cfcec1e4656c61755bac96c3a6a0e29c0f463ee",
    ),
    "folded_g2_4": (
        "92a75d3691de0eeba06627a787ce4339c18c66c1320312e31735017c6df028b1",
        "9daef7ebc75b5885d843ad6ca310488d239624f5f0e20f2b7d8fce9c331c1e48",
    ),
    "double_fold_g2_6": (
        "f894ed28da572f0207cf26419737602559f7c244f3a8138a3992ddeebba791f2",
        "8445951b66f40c02cc74219f45997df0f994ffe2d706f082421999b51746eda6",
    ),
    "foldwalk0": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "d02634fc6a4beeb337b898afa0d36a7b27d5f8292bdc19fad36d91ef96448d11",
    ),
    "foldwalk1": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "95a70792bb9b46a2debdd9c13fb952c779201cb943aa138a27131bd90a525640",
    ),
    "foldwalk2": (
        "92a75d3691de0eeba06627a787ce4339c18c66c1320312e31735017c6df028b1",
        "6ab754764af3150e997c949ea141c5e9383831c652e88ff76a321724ef1e9b73",
    ),
    "foldwalk3": (
        "67e593ed6db661986a31dad3052288cc8c9d84d7a40960552a9dcbc5418bdcc7",
        "a43962f70bd9ff9e149362bcd90daf7c945089b4668d69472dd0337bb1e81e19",
    ),
    "foldwalk4": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "9698a974250e7b1f9ca705813cd3366c7d9f7500ff9070606a70fdf913c3a530",
    ),
    "foldwalk5": (
        "17fa8aadaf94f78f40e16d12617a865c44d3b32276adc013696932d230d73f0d",
        "ba70c5a18005ae8e00bc78f97b47f04eb510982875faf3027e727dd01b10492f",
    ),
    "foldwalk6": (
        "17fa8aadaf94f78f40e16d12617a865c44d3b32276adc013696932d230d73f0d",
        "b661880a5cc33b0fe15b22fbe649277cae5a9a1e66ce1d6db7c236d2e5b44a9a",
    ),
    "foldwalk7": (
        "17fa8aadaf94f78f40e16d12617a865c44d3b32276adc013696932d230d73f0d",
        "80159fbf9ab19df04e14b387aad95dba379c17e252136cb64d302216f4ce091c",
    ),
    "foldwalk8": (
        "17fa8aadaf94f78f40e16d12617a865c44d3b32276adc013696932d230d73f0d",
        "87f0b3abd18fef9bd5d54fb8e72722a977cfa0e6c515b9e55f42496eebf9d8b2",
    ),
    "foldwalk9": (
        "207dccd558f7fa35e0766cdb6b328a2559f37c24b3608461f2a8c89e0b01a233",
        "3691d8b48b70444bee19f8a44b1c5ca155a855530a7190ea07b41a64a4665c0b",
    ),
    "foldwalk10": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "dfb654b4fca594d90847d1a14400d7d6a21fbe576469b87b263bcbaeb94c2ad7",
    ),
    "foldwalk11": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "bda1b80f2fda1e4b0cb0c51834ab7c2e68798c9d9c123de54dd9c310f81a9baf",
    ),
    "foldwalk12": (
        "bfd548af722a8cb9b222b4c975930addc8c95d7d4354dda2226937dc92cff8b0",
        "bbb9dd15d85891cff1c0721191a6e5fcbbd0f1b582c3c8ee07b8a65db73cd180",
    ),
    "foldwalk13": (
        "17fa8aadaf94f78f40e16d12617a865c44d3b32276adc013696932d230d73f0d",
        "ac654b9d5902676822a075f1e28303563844ceb227be06be80654c30a8bde548",
    ),
    "foldwalk14": (
        "92a75d3691de0eeba06627a787ce4339c18c66c1320312e31735017c6df028b1",
        "3f6d2f5524bf53c4a6964fbbc97ad7f2832c9481b58025b8a1b99509b198e8ae",
    ),
    "foldwalk15": (
        "17fa8aadaf94f78f40e16d12617a865c44d3b32276adc013696932d230d73f0d",
        "ff7c6ed2d6a4254d33718048b6e688ef3d579cf456259e5c9a075cea7e932a36",
    ),
    "handle0": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "0d8950a3b8ae6c310714b91a222fd07b6911c20dd548fa783887b99c829f8cc9",
    ),
    "handle1": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "5df37f5b6fff80a25e81fc7da5ff3b06bd2f07498ae54ca97531c5da69a9a86a",
    ),
    "handle2": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "7c47922454b1ab036195ac73aba93c7a17120c852cb5664bc9e306cc485a573b",
    ),
    "handle3": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "95094584686a98ddcc2373235ad2a64a260afdd953e7d1788b25f12ac7f907bc",
    ),
    "handle4": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "a3de8c99c461ef1079472ef70edd9ffa1ddd1d9fce49fc68c03f8efd5bd31ac3",
    ),
}


def _folded_spine(n):
    S = gen.spine_path_sphere(n)
    folds = gen.admissible_folds(S)
    s1, s2, psi = folds[len(folds) // 2]
    return moves.edge_fold(S, s1, s2, dict(psi))[0]


def _handle_bodies():
    S = gen.staircase_sphere(10)
    return [moves.handle_addition(S, s1, s2, dict(psi))[0]
            for s1, s2, psi in itertools.islice(moves.handle_sites(S), 5)]


def audit_inputs(fx, walk):
    inputs = {name: fx(name) for name in COMPLEX_FIXTURES}
    for seed in FOLD_WALK_SEEDS:
        inputs[f"foldwalk{seed}"] = walk(seed, True).complex
    for i, H in enumerate(_handle_bodies()):
        inputs[f"handle{i}"] = H
    return inputs


def audit_fingerprint(rep) -> str:
    text = repr((rep.applicable, rep.facts, rep.violations))
    return hashlib.sha256(text.encode()).hexdigest()


def test_audit_output_is_pinned(fx, walk):
    got, facts = {}, set()
    for name, K in audit_inputs(fx, walk).items():
        reports = [reducer.audit_multi_singular(K, force=f) for f in (False, True)]
        got[name] = tuple(audit_fingerprint(rep) for rep in reports)
        facts.update(reports[1].facts)
    assert got == AUDIT_PINNED
    # the pin covers both facts the split check's errors give the audit
    assert any("mixes separating and non-separating corners" in f for f in facts)
    assert any(f.startswith("unsplittable missing tetrahedron") for f in facts)


# ------------------------------------------------ the scan and cut in full


def corner_reports(K, quad):
    """Each corner of a missing tetrahedron with the full cut of its
    link along the opposite triangle."""
    return {x: reference_neighborhood(K, x, quad - {x}) for x in sorted(quad)}


def reference_split(K, quad, fresh_base=None):
    """``split_at_missing_tetrahedron`` written out in full: the corner
    check, then the cut and the build."""
    moves._missing_tetrahedron_check(K, quad)
    reports = corner_reports(K, quad)
    nonsep = [x for x in sorted(quad) if not reports[x].separates]
    if nonsep:
        raise MoveError(
            f"corners {nonsep} of {sorted(quad)} do not separate their "
            "links; no connected sum was glued along this tetrahedron",
            details=tuple(nonsep),
        )
    cut = {frozenset(t) for t in itertools.combinations(quad, 3)}

    def uncut_triangles(F):
        return [t for t in map(frozenset, itertools.combinations(F, 3)) if t not in cut]

    comp = surfaces._component_ids(sorted(K.facets, key=sorted), uncut_triangles)
    n_comp = max(comp.values()) + 1
    if n_comp == 1:
        raise MoveError(
            f"cutting along {sorted(quad)} does not disconnect: the gluing "
            "was a handle (g2 at least 10), not a connected sum"
        )
    if n_comp != 2:
        raise MoveError(
            f"cutting along {sorted(quad)} leaves {n_comp} pieces; "
            "the complex is not a normal pseudomanifold there"
        )
    side_a = frozenset(F for F, c in comp.items() if c == 0)
    side_b = frozenset(F for F, c in comp.items() if c == 1)
    shared = (
        frozenset(v for F in side_a for v in F)
        & frozenset(v for F in side_b for v in F)
    )
    if shared != quad:
        raise MoveError(
            f"split sides share vertices {sorted(shared)} beyond the "
            f"tetrahedron {sorted(quad)}"
        )
    base = K.fresh_label() if fresh_base is None else fresh_base
    originals = sorted(quad)
    fresh = {x: base + i for i, x in enumerate(originals)}
    K1 = SimplicialComplex(set(side_a) | {quad})
    K2 = SimplicialComplex(
        {frozenset(fresh.get(v, v) for v in F) for F in side_b}
        | {frozenset(fresh.values())}
    )
    rec = moves.MoveRecord(moves.CONNECTED_SUM, (
        ("sigma1", tuple(originals)),
        ("sigma2", tuple(fresh[x] for x in originals)),
        ("psi", tuple(sorted(fresh.items()))),
    ), 0)
    return K1, K2, rec


def reference_site(K):
    """The first missing tetrahedron whose corners all separate."""
    return next((q for q in K.missing_faces(3) if all(
        r.separates for r in corner_reports(K, q).values()
    )), None)


def _outcome(split, K, quad):
    try:
        return split(K, quad)
    except MoveError as e:
        return ("MoveError", str(e), e.details)


def split_sites(K):
    """The split sites, after checking that they are exactly the
    tetrahedra ``split_at_missing_tetrahedron`` accepts, and that it
    splits, or refuses, each missing tetrahedron as the reference does."""
    quads = K.missing_faces(3)
    outcomes = [_outcome(reducer.split_at_missing_tetrahedron, K, q) for q in quads]
    assert outcomes == [_outcome(reference_split, K, q) for q in quads]
    sites = [q for (q,), _sides in reducer._iter_split_sites(K)]
    assert sites == [q for q, out in zip(quads, outcomes) if out[0] != "MoveError"]
    return sites


CORPUS_GROUPS = {
    "fixtures": lambda fx, walk: [fx(name) for name in COMPLEX_FIXTURES],
    "staircase": lambda fx, walk: [gen.staircase_sphere(n) for n in range(1, 33)],
    "spinefold": lambda fx, walk: [_folded_spine(n) for n in range(6, 33)],
}
# the benchmark's walk corpus: sphere walks 100-199, fold walks 0-15
for _lo in range(100, 200, 25):
    CORPUS_GROUPS[f"walks{_lo}"] = (
        lambda fx, walk, lo=_lo: [walk(s, False).complex for s in range(lo, lo + 25)])
CORPUS_GROUPS["foldwalks"] = lambda fx, walk: [walk(s, True).complex for s in FOLD_WALK_SEEDS]


@pytest.mark.parametrize("group", sorted(CORPUS_GROUPS))
def test_split_sites_match_the_reference_scan(group, fx, walk):
    corpus = CORPUS_GROUPS[group](fx, walk)
    assert corpus
    for K in corpus:
        sites = split_sites(K)
        first = reference_site(K)
        assert first == (sites[0] if sites else None)
        if first is not None:
            # the halves and the record the reducer's split step builds
            (quad,), sides = next(reducer._iter_split_sites(K))
            base = K.fresh_label()
            assert reducer._split(K, quad, *sides, base) == reference_split(K, first, base)


def test_a_handle_tetrahedron_is_no_split_site():
    # every corner separates, yet the cut leaves one piece: a handle,
    # which no site list offers as a split
    for H in _handle_bodies():
        assert reference_site(H) is not None
        assert split_sites(H) == []
