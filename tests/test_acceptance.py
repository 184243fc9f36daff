"""End-to-end gate checks, each with an explicit wall-clock budget.

The corpus used by the round-trip, rank and bound checks mixes the
frozen fixtures with three generated families, every admissible fold
of the path-spine spheres, and seeded random walks; it is rebuilt
deterministically on every run.
"""

import itertools
import time
from contextlib import contextmanager
from random import Random

import pytest

from pseudoform import io, moves, reducer, rigidity
from pseudoform.complexes import (
    SimplicialComplex,
    find_isomorphism,
    total_g2,
    validate_normal,
)
from pseudoform.errors import MoveError, PseudoformError
from pseudoform.generators import (
    admissible_folds,
    boundary_simplex,
    cross_polytope,
    find_admissible_handle,
    generate,
    parse_generator_spec,
    spine_path_sphere,
    staircase_sphere,
)
from pseudoform.surfaces import RP2

from conftest import COMPLEX_FIXTURES
from test_component_cut import MOEBIUS, reference_neighborhood


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def _shift(K, d):
    return K.relabeled({v: v + d for v in K.vertices})


def _singulars(K):
    return sorted(v for v, _c in validate_normal(K).singular_vertices)


# --------------------------------------------------------------- corpus


_CORPUS = None


def _corpus(fx):
    """(label, complex) pairs; >= 100 reducible entries, plus extras."""
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS
    out = []
    for name in COMPLEX_FIXTURES:
        out.append((name, fx(name)))
    for blocks in range(2, 9):
        out.append((f"stacked-{blocks}",
                    generate(parse_generator_spec(
                        f"StackedSphere({blocks})")).complex))
        out.append((f"spine-{blocks}", spine_path_sphere(blocks)))
    for blocks in range(2, 10):
        out.append((f"staircase-{blocks}", staircase_sphere(blocks)))
    for blocks in (6, 7, 8):
        PS = spine_path_sphere(blocks)
        for i, (s1, s2, pairs) in enumerate(admissible_folds(PS)):
            K, _ = moves.edge_fold(PS, s1, s2, dict(pairs))
            out.append((f"fold-{blocks}-{i}", K))
    for seed in range(52):
        g = generate(parse_generator_spec(f"RandomMoves(seed={seed},budget=20)"))
        out.append((f"walk-{seed}", g.complex))
    for seed in (2, 14):
        g = generate(parse_generator_spec(
            f"RandomMoves(seed={seed},budget=40,allow_fold=true,g2_cap=4)"))
        out.append((f"foldwalk-{seed}", g.complex))
    _CORPUS = out
    return out


def _reducible(corpus):
    return [(name, K) for name, K in corpus if name != "double_fold_g2_6"]


# ------------------------------------------------------------- check 1


def test_seed_identities():
    with budget(1):
        B = boundary_simplex()
        fv = B.f_vector()
        assert fv.as_tuple() == (5, 10, 10, 5)
        assert fv.g2 == 0 and fv.g3 == 0
        assert str(fv) == "f=(5,10,10,5) g2=0 g3=0"
        assert validate_normal(B).is_normal_closed


# ------------------------------------------------------------- check 2


def test_connected_sum_adds_g2():
    with budget(10):
        spheres = [cross_polytope()]
        for blocks in (3, 4, 5, 6):
            spheres.append(staircase_sphere(blocks))
            spheres.append(spine_path_sphere(blocks))
        for seed in range(8):
            g = generate(parse_generator_spec(
                f"RandomMoves(seed={seed + 100},budget=15)"))
            spheres.append(g.complex)

        rng = Random(20260823)
        checked = 0
        while checked < 50:
            K1 = rng.choice(spheres)
            K2 = _shift(rng.choice(spheres), 1000)
            f1 = min(tuple(sorted(F)) for F in K1.facets)
            f2 = min(tuple(sorted(F)) for F in K2.facets)
            K, rec = moves.connected_sum(K1, f1, K2, f2, dict(zip(f1, f2)))
            assert rec.g2_delta == 0
            assert total_g2(K) == total_g2(K1) + total_g2(K2)
            checked += 1
        assert checked == 50


# ------------------------------------------------------------- check 3


def test_handle_addition_adds_ten(fx):
    with budget(5):
        # the 9-vertex chain is too tight for this move: every facet
        # bijection leaves a vertex pair at graph distance < 3, so the
        # move correctly refuses all of them
        C5 = fx("chain5")
        assert find_admissible_handle(C5) is None
        facets = sorted(tuple(sorted(F)) for F in C5.facets)
        refused = 0
        for s1, s2 in itertools.combinations(facets, 2):
            if set(s1) & set(s2):
                continue
            for perm in itertools.permutations(s2):
                with pytest.raises(MoveError):
                    moves.handle_addition(C5, s1, s2, dict(zip(s1, perm)))
                refused += 1
        assert refused > 0

        # the 13-vertex chain is the smallest of the family that
        # admits one; there the move gains exactly 10 and every link
        # stays a sphere
        C9 = fx("chain9")
        site = find_admissible_handle(C9)
        assert site is not None
        s1, s2, pairs = site
        H, rec = moves.handle_addition(C9, s1, s2, dict(pairs))
        assert rec.g2_delta == 10
        assert total_g2(H) == total_g2(C9) + 10
        rep = validate_normal(H)
        assert rep.is_normal_closed
        assert rep.singular_vertices == ()


# ------------------------------------------------------------- check 4


def test_edge_fold_adds_three_with_two_projective_links(fx):
    with budget(5):
        S = fx("foldable_sphere")
        assert total_g2(S) == 0
        F, rec = moves.edge_fold(
            S, (0, 1, 2, 3), (0, 1, 7, 9), {0: 0, 1: 1, 2: 7, 3: 9}
        )
        assert rec.g2_delta == 3
        assert total_g2(F) == 3
        rep = validate_normal(F)
        assert rep.is_normal_closed
        assert [(v, c.kind) for v, c in rep.singular_vertices] == [
            (0, RP2), (1, RP2)
        ]
        assert F == fx("folded_g2_3")


# ------------------------------------------------------------- check 5


def _ring_around(K, u, c):
    """Neighbors of c in the link of u, in rotation order."""
    nbrs = {}
    for t in K.link((u,)).facets:
        if c in t:
            x, y = sorted(t - {c})
            nbrs.setdefault(x, []).append(y)
            nbrs.setdefault(y, []).append(x)
    if not nbrs or any(len(v) != 2 for v in nbrs.values()):
        return None
    start = min(nbrs)
    walk = [start, min(nbrs[start])]
    while True:
        a, b = walk[-2], walk[-1]
        nxt = nbrs[b][0] if nbrs[b][1] == a else nbrs[b][1]
        if nxt == start:
            break
        walk.append(nxt)
    if len(walk) != len(nbrs) or len(walk) < 3:
        return None
    return tuple(walk)


def _predicted_delta(K, kind, site):
    if kind == "Bistellar1":
        return 1
    if kind == "Bistellar2":
        return -1
    if kind == "EdgeContract":
        return -(K.edge_degree(site) - 3)
    if kind == "EdgeExpand":
        _u, cycle = site
        return len(cycle) - 3
    if kind == "TwoFacetsInsert":
        return -1
    if kind == "TwoFacetsContract":
        return 1
    return 0  # subdivision either way


def _apply_random_move(K, kind, rng):
    """Pick an admissible site for kind, or return None."""
    fresh = K.fresh_label()
    if kind == "Bistellar1":
        sites = moves.bistellar_one_sites(K)
        if not sites:
            return None
        tri, _apexes = rng.choice(sites)
        return tri, moves.bistellar_one(K, tri)
    if kind == "Bistellar2":
        sites = moves.bistellar_two_sites(K)
        if not sites:
            return None
        edge, _t = rng.choice(sites)
        return edge, moves.bistellar_two(K, edge)
    if kind == "EdgeContract":
        sites = moves.contractible_edges(K)
        if not sites:
            return None
        edge, _deg = rng.choice(sites)
        return edge, moves.contract_edge(K, edge)
    if kind == "EdgeExpand":
        u = rng.choice(sorted(K.vertices))
        c = rng.choice(sorted(K.link((u,)).vertices))
        ring = _ring_around(K, u, c)
        if ring is None:
            return None
        out = moves.expand_edge(K, u, ring, u_side=rng.randrange(2),
                                apexes=(fresh, fresh + 1))
        return (u, ring), out
    if kind == "TwoFacetsInsert":
        sites = moves.insertion_sites(K)
        if not sites:
            return None
        w, tri = rng.choice(sites)
        return (w, tri), moves.insert_two_facets(K, w, tri,
                                                 apexes=(fresh, fresh + 1))
    if kind == "TwoFacetsContract":
        sites = moves.contraction_pair_sites(K)
        if not sites:
            return None
        u, v, _tri = rng.choice(sites)
        return (u, v), moves.contract_two_facets(K, u, v, fresh=fresh)
    if kind == "FacetSubdivide":
        facet = rng.choice(sorted(tuple(sorted(F)) for F in K.facets))
        return facet, moves.facet_subdivide(K, facet, fresh=fresh)
    if kind == "FacetUnsubdivide":
        sites = moves.unsubdividable_vertices(K)
        if not sites:
            return None
        w, _q = rng.choice(sites)
        return w, moves.facet_unsubdivide(K, w)
    raise AssertionError(kind)


_WALK_KINDS = (
    "Bistellar1", "Bistellar2", "EdgeContract", "EdgeExpand",
    "TwoFacetsInsert", "TwoFacetsContract", "FacetSubdivide",
    "FacetUnsubdivide",
)


def test_random_move_deltas_match_table():
    with budget(60):
        rng = Random(64)
        applied = {k: 0 for k in _WALK_KINDS}
        total = 0
        starts = [cross_polytope(), spine_path_sphere(5), staircase_sphere(6)]
        walk = 0
        while total < 500:
            K = starts[walk % len(starts)]
            walk += 1
            for _step in range(40):
                kinds = list(_WALK_KINDS)
                rng.shuffle(kinds)
                for kind in kinds:
                    if total_g2(K) >= 9 and kind in (
                        "Bistellar1", "EdgeExpand", "TwoFacetsContract"
                    ):
                        continue
                    if len(K.vertices) > 26 and kind in (
                        "EdgeExpand", "TwoFacetsInsert", "FacetSubdivide"
                    ):
                        continue
                    try:
                        hit = _apply_random_move(K, kind, rng)
                    except MoveError:
                        continue
                    if hit is None:
                        continue
                    site, (K2, rec) = hit
                    want = _predicted_delta(K, kind, site)
                    got = total_g2(K2) - total_g2(K)
                    assert rec.kind == kind
                    assert rec.g2_delta == want == got, (kind, site)
                    if total_g2(K2) <= 9:
                        K = K2
                        applied[kind] += 1
                        total += 1
                    break
        assert total >= 500
        # every kind in the table actually occurred
        assert all(n > 0 for n in applied.values()), applied


# ------------------------------------------------------------- check 6


def test_reduce_replay_round_trip_corpus(fx):
    with budget(300):
        corpus = _reducible(_corpus(fx))
        assert len(corpus) >= 100
        n_singular = 0
        for name, K in corpus:
            report = reducer.reduce_complex(K)
            assert report.accepted, (name, report.reason)
            back = reducer.replay(report.trace)
            assert back == K, name
            kinds = [rec.kind for _t, rec in report.trace.forward_moves]
            if _singulars(K):
                n_singular += 1
                assert kinds.count("EdgeFold") == 1, name
                assert kinds.count("HandleAdd") == 0, name
            else:
                assert "EdgeFold" not in kinds and "HandleAdd" not in kinds
        assert n_singular >= 20  # the folds and the fold walks

        # label-exact equality is a special isomorphism; spot-check the
        # search on a relabeled round trip as well
        for name in ("cross_polytope", "folded_g2_3"):
            K = fx(name)
            moved = _shift(K, 500)
            mapping = find_isomorphism(K, moved)
            assert mapping == {v: v + 500 for v in K.vertices}


# ------------------------------------------------------------- check 7


def test_skeleton_rank_full_everywhere(fx):
    with budget(60):
        for name, K in _corpus(fx):
            verdict = rigidity.complex_rigidity(K)
            f0 = len(K.vertices)
            assert verdict.rank == 4 * f0 - 10, name
            assert verdict.is_generically_rigid, name
            assert verdict.edge_excess == K.f_vector().g2, name


# ------------------------------------------------------------- check 8


def test_link_bounds_everywhere(fx):
    with budget(60):
        for name, K in _corpus(fx):
            for v in K.vertices:
                assert rigidity.check_star_bound(K, v), (name, v)
                _n, holds = rigidity.check_cone_augmented_bound(K, v)
                assert holds, (name, v)


# ------------------------------------------------------------- check 9


def _moebius_corners(K, quad):
    return sum(
        1
        for v in sorted(quad)
        if reference_neighborhood(K, v, quad - {v}).neighborhood == MOEBIUS
    )


def test_moebius_corners_never_exactly_three(fx):
    with budget(10):
        folded = [fx("folded_g2_3"), fx("folded_g2_4"), fx("double_fold_g2_6")]
        PS = spine_path_sphere(6)
        for s1, s2, pairs in admissible_folds(PS):
            K, _ = moves.edge_fold(PS, s1, s2, dict(pairs))
            folded.append(K)
        seen_two_or_more = 0
        quads = 0
        for K in folded:
            for quad in K.missing_faces(3):
                quads += 1
                n = _moebius_corners(K, quad)
                # three one-sided corners would force the fourth; the
                # parity never lands on exactly three
                assert n != 3, sorted(quad)
                if n >= 2:
                    seen_two_or_more += 1
        assert quads >= 20
        assert seen_two_or_more >= 5  # the check is not vacuous


# ------------------------------------------------------------ check 10


def _facet_with_one_singular(K, singular):
    for f in sorted(tuple(sorted(F)) for F in K.facets):
        hit = [v for v in f if v in singular]
        if len(hit) == 1:
            return f, hit[0]
    raise AssertionError("no such facet")


def _sum_keeping_singulars(K1, K2):
    """Glue two-singular complexes without merging singular pairs."""
    s1 = set(_singulars(K1))
    s2 = set(_singulars(K2))
    f1, v1 = _facet_with_one_singular(K1, s1)
    f2, v2 = _facet_with_one_singular(K2, s2)
    # send the singular corner of f1 to a plain corner of f2 and a
    # plain corner of f1 onto the singular corner of f2
    plain2 = [x for x in f2 if x != v2]
    plain1 = [x for x in f1 if x != v1]
    psi = {v1: plain2[0], plain1[0]: v2,
           plain1[1]: plain2[1], plain1[2]: plain2[2]}
    K, _ = moves.connected_sum(K1, f1, K2, f2, psi)
    return K


def _battery(fx):
    """Adversarial candidates aimed at g2=4 with many singular links."""
    F3 = fx("folded_g2_3")
    F4 = fx("folded_g2_4")
    DF = fx("double_fold_g2_6")
    G3 = _shift(F3, 20)
    out = []

    # hand-glued attempts that merge projective-plane pairs
    K, _ = moves.connected_sum(F3, (0, 1, 2, 4), G3, (20, 21, 22, 24),
                               {0: 20, 1: 21, 2: 22, 4: 24})
    out.append(("double-klein-merge", K))
    K, _ = moves.connected_sum(F3, (0, 1, 2, 4), G3, (20, 21, 22, 24),
                               {0: 21, 1: 22, 2: 20, 4: 24})
    out.append(("single-klein-merge", K))

    # sums that keep all the projective planes apart
    four = _sum_keeping_singulars(F3, G3)
    out.append(("four-rp2-g2-6", four))
    out.append(("four-rp2-g2-7", _sum_keeping_singulars(F3, _shift(F4, 20))))
    out.append(("six-rp2-g2-9", _sum_keeping_singulars(four, _shift(F3, 60))))

    # the frozen double fold and light disguises of it
    out.append(("double-fold", DF))
    K = DF
    for i, F in enumerate(sorted(tuple(sorted(x)) for x in DF.facets)[:3]):
        K, _ = moves.facet_subdivide(K, F, fresh=K.fresh_label())
        out.append((f"double-fold-subdiv-{i}", K))
    tri, _apexes = moves.bistellar_one_sites(DF)[0]
    K, _ = moves.bistellar_one(DF, tri)
    out.append(("double-fold-bistellar", K))

    # suspensions: two singular vertices with the wrong g2 or wrong link
    rp2 = io.parse_facets(
        (__import__("conftest").FIXTURES / "rp2_6.txt").read_text()
    )
    out.append(("suspended-rp2",
                SimplicialComplex([t + (6,) for t in rp2]
                                  + [t + (7,) for t in rp2])))
    torus = [tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7)))
             for i in range(7)]
    torus += [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7)))
              for i in range(7)]
    out.append(("suspended-torus",
                SimplicialComplex([t + (7,) for t in torus]
                                  + [t + (8,) for t in torus])))

    # invalid inputs posing as candidates
    out.append(("wedge", SimplicialComplex([(0, 1, 2, 3), (0, 4, 5, 6)])))
    out.append(("triple-ridge",
                SimplicialComplex([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5),
                                   (1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4),
                                   (1, 2, 4, 5), (0, 2, 4, 5), (0, 1, 4, 5)])))

    # in-scope complexes that simply do not measure up to the claim
    out.append(("folded-two-singular", F3))
    out.append(("folded-g2-4", F4))
    out.append(("cross-polytope", cross_polytope()))
    C9 = staircase_sphere(9)
    s1, s2, pairs = find_admissible_handle(C9)
    H, _ = moves.handle_addition(C9, s1, s2, dict(pairs))
    out.append(("handle-sphere-g2-10", H))
    for seed in (2, 14):
        g = generate(parse_generator_spec(
            f"RandomMoves(seed={seed},budget=40,allow_fold=true,g2_cap=4)"))
        out.append((f"fold-walk-{seed}", g.complex))

    # second folds attempted on every already-folded walk state: apply
    # whatever the enumerator still allows (each lands at g2=7 with a
    # Klein bottle link), then compose by gluing as well
    for seed in (2, 14):
        g = generate(parse_generator_spec(
            f"RandomMoves(seed={seed},budget=40,allow_fold=true,g2_cap=4)"))
        for i, site in enumerate(admissible_folds(g.complex)):
            s1, s2, pairs = site
            K, _ = moves.edge_fold(g.complex, s1, s2, dict(pairs))
            out.append((f"second-fold-{seed}-{i}", K))
        out.append((f"double-fold-walk-{seed}",
                    _sum_keeping_singulars(g.complex, _shift(F3, 1000))))
    return out


def test_no_small_g2_many_singular_candidate_survives(fx):
    with budget(60):
        battery = _battery(fx)
        assert len(battery) >= 20
        survivors = []
        forced = 0
        for name, K in battery:
            rep = validate_normal(K)
            if not rep.is_normal_closed:
                continue  # defeated by validation
            audit = reducer.audit_multi_singular(K)
            assert audit.defeated, name
            sing = rep.singular_vertices
            rp2_count = sum(1 for _v, c in sing if c.kind == RP2)
            if total_g2(K) == 4 and rp2_count > 2:
                survivors.append(name)
            if len(sing) > 2:
                # the rule battery has concrete structural objections
                audit2 = reducer.audit_multi_singular(K, force=True)
                assert audit2.violations, name
                forced += 1
        assert survivors == []
        assert forced >= 8


# ------------------------------------------------- file format round trip


def test_facet_and_trace_formats_round_trip_byte_exact(fx, tmp_path):
    import conftest

    for name in COMPLEX_FIXTURES + ("rp2_6",):
        text = (conftest.FIXTURES / f"{name}.txt").read_text()
        assert io.format_facets(io.parse_facets(text)) == text, name

    for name in ("boundary4simplex", "cross_polytope", "folded_g2_3"):
        trace = reducer.reduce_complex(fx(name)).trace
        text = reducer.format_trace(trace)
        assert reducer.format_trace(reducer.parse_trace(text)) == text
        p = tmp_path / f"{name}.trace"
        p.write_text(text, encoding="ascii")
        assert reducer.format_trace(
            reducer.parse_trace(p.read_text(encoding="ascii"))
        ) == text
