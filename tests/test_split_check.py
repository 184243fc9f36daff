"""The connected-sum split's one precondition.

``reducer._split_check`` decides where a complex splits, for
``split_at_missing_tetrahedron``, the reducer's split step and the
audit's stripping alike.  It is one cut of the facets along the four
triangles of a missing tetrahedron.  This module pins the audit's
output, and compares the split sites and every split or its error with
a reference that writes the cut out in full.  The reference also cuts
each corner's link, and checks the lemma that let the package drop that
corner cut: on a normal complex the facet cut refuses every tetrahedron
with a corner that does not separate its link.
"""

import hashlib
import itertools

import pytest

from pseudoform import complexes, generators as gen, moves, reducer, surfaces
from pseudoform.complexes import SimplicialComplex, validate_normal
from pseudoform.errors import MoveError

from conftest import COMPLEX_FIXTURES, FOLD_WALK_SEEDS, SPHERE_WALK_SEEDS, fold_rung
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
        "34f6c2ed766c7626b0357cebeaedf7b50a88ef888148efed02148f1937926f9c",
    ),
    "folded_g2_4": (
        "92a75d3691de0eeba06627a787ce4339c18c66c1320312e31735017c6df028b1",
        "b88210b3fbe3c4b4b4a7171c4f05b268af8eb8797b57e419be2d5c970c191ccc",
    ),
    "double_fold_g2_6": (
        "f894ed28da572f0207cf26419737602559f7c244f3a8138a3992ddeebba791f2",
        "a21c56964bb23e1542cc25ac60237b002da01e36dd65ea2ed8d57605613e4d15",
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
        "a592e81d82b631d6e88e5c80f2ae08710521fb9990e76da42689031f22404089",
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
        "3ba98f0b568e1cde5828da5c87c68e0621d5ac227a77509607ec87a5732f53f7",
    ),
    "foldwalk15": (
        "17fa8aadaf94f78f40e16d12617a865c44d3b32276adc013696932d230d73f0d",
        "ff7c6ed2d6a4254d33718048b6e688ef3d579cf456259e5c9a075cea7e932a36",
    ),
    "handle0": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "d73923234d6a51b502662d4983c6ddcc8a736c9ed5f8e2b72b9ef586c920619c",
    ),
    "handle1": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "680d810c70febffcea7114eaa5d7d93d910eb60f2d4ad53e91484f179622c425",
    ),
    "handle2": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "361da3de7f7b51d3851fe83ec370eb9b31c3170f3629fcbfebb8295c0ee5c283",
    ),
    "handle3": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "fb705c9d424e99dce786345eed51b2c3d3f7455a6ae32363a7b894451cef779f",
    ),
    "handle4": (
        "bc89869790e901a53da1f1e5a6dd8731bd62a05650e5ac871cd0c7cb7c08f6c4",
        "4d4804c9b0c8ca7b3cf6a5bfdda34a7b46ca49a26f4807fc23162a7df0944f40",
    ),
}


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
    # the pin covers the split check's refusal, which the audit notes
    assert any(f.startswith("unsplittable missing tetrahedron: cutting along")
               and f.endswith("does not leave two sides; no connected sum was glued "
                              "along this tetrahedron") for f in facts)


# ------------------------------------------------ the scan and cut in full


def corner_reports(K, quad):
    """Each corner of a missing tetrahedron with the full cut of its
    link along the opposite triangle."""
    return {x: reference_neighborhood(K, x, quad - {x}) for x in sorted(quad)}


def reference_split(K, quad, fresh_base=None):
    """``split_at_missing_tetrahedron`` written out in full: the cut and
    the build.  The corner reports check the lemma that replaced the
    corner check: on a normal complex, a tetrahedron with a corner that
    does not separate its link is refused by the cut."""
    moves._missing_tetrahedron_check(K, quad)
    reports = corner_reports(K, quad)
    nonsep = [x for x in sorted(quad) if not reports[x].separates]
    cut = {frozenset(t) for t in itertools.combinations(quad, 3)}

    def uncut_triangles(F):
        return [t for t in map(frozenset, itertools.combinations(F, 3)) if t not in cut]

    comp = surfaces._component_ids(sorted(K.facets, key=sorted), uncut_triangles)
    n_comp = max(comp.values()) + 1
    if nonsep and validate_normal(K).is_normal_closed:
        assert n_comp == 1, (sorted(quad), nonsep)
    if n_comp != 2:
        raise MoveError(
            f"cutting along {sorted(quad)} does not leave two sides; "
            "no connected sum was glued along this tetrahedron"
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
    "spinefold": lambda fx, walk: [fold_rung(n) for n in range(6, 33)],
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


def test_the_split_check_cuts_no_link(fx, walk, monkeypatch):
    # the split check is one cut of the facets: reducing the fold ladder,
    # the corpus walks and the fixtures, it cuts no vertex link and reads
    # no link class, while the reductions around it do both
    inside, calls = [0], {"split": 0, "_link_sides": [0, 0], "_link_class": [0, 0]}
    split_check = reducer._split_check

    def counted_check(K, quad):
        calls["split"] += 1
        inside[0] += 1
        try:
            return split_check(K, quad)
        finally:
            inside[0] -= 1

    def counted(name, f):
        def wrapper(*args):
            calls[name][bool(inside[0])] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(reducer, "_split_check", counted_check)
    monkeypatch.setattr(moves, "_link_sides", counted("_link_sides", moves._link_sides))
    link_class = counted("_link_class", complexes._link_class)
    for module in (complexes, moves, reducer):
        monkeypatch.setattr(module, "_link_class", link_class)
    corpus = [fold_rung(n) for n in (8, 16, 32, 64)]
    corpus += [walk(s, False).complex for s in SPHERE_WALK_SEEDS]
    corpus += [walk(s, True).complex for s in FOLD_WALK_SEEDS]
    corpus += [fx(name) for name in COMPLEX_FIXTURES]
    for K in corpus:
        reducer.reduce_complex(K)
    assert calls["split"] > 0
    assert calls["_link_sides"][1] == calls["_link_class"][1] == 0
    assert calls["_link_sides"][0] > 0 and calls["_link_class"][0] > 0
