"""The trusted successor against a fresh build.

Every move constructor and the reducer's split build their result with
``SimplicialComplex._successor``, which patches the caches of the
complex the move starts from instead of building the result afresh.
The gate here checks, at every replay step, reducer step and split half
of the corpus, that the result equals a fresh ``SimplicialComplex`` of
its facets in every cache it carries, that the change of total g2 read
off those caches is the fresh one, and that the singular map carried
from the step (``moves.singular_after``, and ``reducer._split_singular``
for both halves of a split) agrees with ``validate_normal`` on every
component, and each step's also with the reference recheck
``normal_update`` (kept in ``conftest``).  Mutants that
drop one patched edge or one component merge, or that give a move or a
split the wrong singular map, must fail the gate.

A replay of staircase spheres of two sizes then counts the work per
move, so that a return to quadratic replay fails without any timing.
"""

import hashlib

import pytest

from pseudoform import complexes, generators as gen, moves, reducer
from pseudoform.complexes import SimplicialComplex, total_g2
from pseudoform.errors import MalformedFacetError

from conftest import (COMPLEX_FIXTURES, FOLD_WALK_SEEDS, LINKS_MUTANTS, RULE_MUTANTS,
                      SPHERE_WALK_SEEDS, folded_spine, normal_update,
                      rp2_second_summand, rule_runs)


def _partition(comp):
    """The parts of a component map, as sorted vertex lists, sorted."""
    return sorted(sorted(vs) for vs in _by_label(comp).values())


def _by_label(comp):
    out = {}
    for v, r in comp.items():
        out.setdefault(r, set()).add(v)
    return out


def _carried_g2(K):
    """Total g2 from the caches K carries, or None when one is missing."""
    c = K._cache
    if {"edge_counts", "vertices", "component_members"} <= c.keys():
        return (len(c["edge_counts"]) - 4 * len(c["vertices"])
                + 10 * len(c["component_members"]))
    return None


class Fresh:
    """Fresh builds of the facet sets met while checking one input, with
    their total g2 and the ``validate_normal`` verdict of each component.
    Only the last two builds are kept."""

    def __init__(self):
        self.builds, self.g2, self.verdicts = {}, {}, {}

    def clear(self):
        for memo in (self.builds, self.g2, self.verdicts):
            memo.clear()

    def build(self, facets):
        got = self.builds.get(facets)
        if got is None:
            got = SimplicialComplex(facets)
            last = list(self.builds.items())[-1:]
            self.builds = dict(last + [(facets, got)])
        return got

    def total_g2(self, facets):
        if facets not in self.g2:
            self.g2[facets] = total_g2(self.build(facets))
        return self.g2[facets]

    def singular_map(self, K):
        """``validate_normal`` on every component of a fresh build."""
        comp = self.build(K.facets)._components()
        parts = {}
        for F in K.facets:
            parts.setdefault(comp[next(iter(F))], set()).add(F)
        out = {}
        for facets in map(frozenset, parts.values()):
            got = self.verdicts.get(facets)
            if got is None:
                rep = complexes.validate_normal(SimplicialComplex(facets))
                got = dict(rep.singular_vertices) if rep.is_normal_closed else False
                self.verdicts[facets] = got
            if got is False:
                return None
            out.update(got)
        return out


def check_successor(K, K2, fresh):
    """Assert that every cache ``K2`` carries is that of a fresh build,
    and that the g2 change read off the caches is the fresh one.
    Forces no cache of ``K`` or ``K2``.  Returns whether both carried
    what total g2 needs."""
    F = fresh.build(K2.facets)
    carried = K2._cache
    if "facets_by_vertex" in carried:
        by_vertex = carried["facets_by_vertex"]
        assert all(len(set(Fs)) == len(Fs) for Fs in by_vertex.values())
        assert {v: set(Fs) for v, Fs in by_vertex.items()} == {
            v: set(Fs) for v, Fs in F._facets_by_vertex().items()}
    if "vertices" in carried:
        assert carried["vertices"] == F.vertices
    if "edge_counts" in carried:
        assert dict(carried["edge_counts"]) == dict(F._edge_counts())
    if "max_label" in carried:
        assert carried["max_label"] == F.max_label
    if "components" in carried:
        comp, members = carried["components"], carried["component_members"]
        assert _partition(comp) == _partition(F._components())
        assert {r: set(vs) for r, vs in members.items()} == _by_label(comp)
    after, before = _carried_g2(K2), _carried_g2(K)
    if after is None or before is None:
        return False
    assert after - before == fresh.total_g2(K2.facets) - fresh.total_g2(K.facets)
    return True


def install_gate(monkeypatch, successor):
    """Put every call of ``successor``, and every singular map that the
    reducer and replay carry (each ``moves.singular_after``, which also
    must agree with ``normal_update``, and both halves of each answer of
    ``reducer._split_singular``), as they are now, under the gate;
    returns the tally of checks, whose ``fresh`` builds are to be
    cleared between inputs."""
    tally = {"successors": 0, "carried": 0, "updates": 0, "fresh": Fresh()}
    singular_after, split_singular = moves.singular_after, reducer._split_singular

    def gated(self, removed, added):
        K2 = successor(self, removed, added)
        tally["carried"] += check_successor(self, K2, tally["fresh"])
        tally["successors"] += 1
        return K2

    def check(K2, got):
        assert got == tally["fresh"].singular_map(K2)
        tally["updates"] += 1

    def checked(K, K2, rec):
        before = K._cache["singular"]
        got = singular_after(K, K2, rec)
        assert got == normal_update(K, K2, before)
        check(K2, got)
        return got

    def checked_split(K, K1, K2, rec):
        split_singular(K, K1, K2, rec)
        for half in (K1, K2):
            check(half, half._cache["singular"])

    monkeypatch.setattr(SimplicialComplex, "_successor", gated)
    monkeypatch.setattr(moves, "singular_after", checked)
    monkeypatch.setattr(reducer, "_split_singular", checked_split)
    return tally


def _reduce_and_replay(K, tally):
    tally["fresh"].clear()
    report = reducer.reduce_complex(K)
    if report.accepted:
        assert reducer.replay(report.trace) == K
    return report


# --------------------------------------------------------------- the gate


@pytest.mark.parametrize("name", COMPLEX_FIXTURES)
def test_fixtures_pass_the_gate(name, fx, monkeypatch):
    K = fx(name)
    tally = install_gate(monkeypatch, SimplicialComplex._successor)
    report = _reduce_and_replay(K, tally)
    assert report.accepted == (name != "double_fold_g2_6")
    assert tally["updates"] <= tally["successors"]


def test_staircase_spheres_pass_the_gate(monkeypatch):
    inputs = [gen.staircase_sphere(n) for n in range(1, 65)]
    tally = install_gate(monkeypatch, SimplicialComplex._successor)
    for K in inputs:
        _reduce_and_replay(K, tally)
    # each of the n - 1 splits makes two halves, and replay one sum
    assert tally["successors"] == tally["updates"] == sum(3 * n for n in range(64))


def test_folded_spine_spheres_pass_the_gate(monkeypatch):
    inputs = [folded_spine(n) for n in range(6, 65)]
    tally = install_gate(monkeypatch, SimplicialComplex._successor)
    for K in inputs:
        assert _reduce_and_replay(K, tally).accepted
    assert tally["successors"] >= tally["updates"] > 0


# sha256 of repr([(canonical facets, format_trace)]) of
# generate(StackedSphere(n)) for n = 1..64, taken when every block was
# glued with the public connected_sum on a fresh union.
STACKED_PINNED = "ef2b0a0f7cca86b4674aafd5ca09656ffea602e05a7d59241bc4d830afde669e"


def _stacked(n):
    return gen.generate(gen.parse_generator_spec(f"StackedSphere({n})"))


def test_stacked_spheres_pass_the_gate(monkeypatch):
    tally = install_gate(monkeypatch, SimplicialComplex._successor)
    for n in [*range(1, 33), 64]:
        tally["fresh"].clear()
        before = tally["successors"]
        _stacked(n)
        # one successor per glued block, each checked against a fresh build
        assert tally["successors"] - before == n - 1


def test_stacked_spheres_are_pinned():
    made = [_stacked(n) for n in range(1, 65)]
    outs = [(g.complex.canonical_facets(), reducer.format_trace(g.trace)) for g in made]
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == STACKED_PINNED


@pytest.mark.parametrize("n", [32, 128])
def test_stacked_work_per_block_does_not_grow(n, monkeypatch):
    """Generating StackedSphere(n) cleans each facet of the seeds and of
    their union once, builds no complex but the seeds and the union,
    searches components once, and each gluing rewrites the glued facet
    and the block's five."""
    counts = {"rewritten": [], "clean_face": 0, "init": 0, "searched": 0}
    successor = SimplicialComplex._successor
    clean_face = complexes.clean_face
    init = SimplicialComplex.__init__
    components = SimplicialComplex._components

    def counted_successor(self, removed, added):
        removed, added = set(removed), set(added)
        counts["rewritten"].append(len(removed) + len(added))
        return successor(self, removed, added)

    def counted_clean_face(vertices):
        counts["clean_face"] += 1
        return clean_face(vertices)

    def counted_init(self, facets):
        counts["init"] += 1
        init(self, facets)

    def counted_components(self):
        counts["searched"] += "components" not in self._cache
        return components(self)

    with monkeypatch.context() as m:
        m.setattr(SimplicialComplex, "_successor", counted_successor)
        m.setattr(SimplicialComplex, "__init__", counted_init)
        m.setattr(SimplicialComplex, "_components", counted_components)
        m.setattr(complexes, "clean_face", counted_clean_face)
        K = _stacked(n).complex
    assert len(K.facets) == 3 * n + 2
    # each seed cleans its five facets twice (from_facets, then the
    # constructor), the union once more
    assert counts["clean_face"] == 15 * n
    assert counts["init"] == n + 1
    assert counts["searched"] == 1
    assert counts["rewritten"] == [10] * (n - 1)


# The walk-corpus walks: sphere walks by seed (g2 cap 9) and fold walks
# by seed (g2 cap 4), at budget 20.
CORPUS_WALKS = [(seed, False) for seed in SPHERE_WALK_SEEDS]
CORPUS_WALKS += [(seed, True) for seed in FOLD_WALK_SEEDS]


@pytest.mark.parametrize("chunk", range(4))
def test_walk_corpus_passes_the_gate(chunk, monkeypatch, walk):
    walks = [walk(seed, fold) for seed, fold in CORPUS_WALKS[chunk::4]]
    tally = install_gate(monkeypatch, SimplicialComplex._successor)
    for g in walks:
        tally["fresh"].clear()
        before = tally["updates"]
        assert reducer.replay(g.trace) == g.complex
        assert tally["updates"] - before == len(g.trace.forward_moves)
        assert _reduce_and_replay(g.complex, tally).accepted


def test_added_facets_that_meet_no_component_are_a_new_one():
    K = gen.boundary_simplex()
    K._components()
    added = gen.boundary_simplex(5).facets
    fresh = Fresh()
    K2 = K._successor((), added)
    assert K2.facets == K.facets | added
    check_successor(K, K2, fresh)
    assert _partition(K2._components()) == [list(range(5)), list(range(5, 10))]
    assert _partition(K2._components()) == _partition(fresh.build(K2.facets)._components())


@pytest.mark.parametrize("fresh", [-1, "7", 2.5])
def test_fresh_labels_are_checked_before_the_trusted_build(fresh):
    # a record's fresh labels are the only labels a move brings in
    K = gen.staircase_sphere(2)
    F = K.canonical_facets()[0]
    with pytest.raises(MalformedFacetError):
        moves.facet_subdivide(K, F, fresh=fresh)
    with pytest.raises(MalformedFacetError):
        moves.expand_edge(K, 0, (1, 2, 3), apexes=(fresh, 99))


# ------------------------------------------------------------ the mutants


def _drop_an_edge(K, K2):
    counts = K2._cache.get("edge_counts")
    if counts:
        del counts[next(iter(counts))]


def _skip_the_merge(K, K2):
    """Keep the components of ``K`` apart, as if no merge happened."""
    members = K._cache.get("component_members")
    if "components" not in K2._cache or members is None:
        return
    if len(K2._cache["component_members"]) < len(members):
        kept = {r: vs & K2.vertices for r, vs in members.items()}
        K2._cache["component_members"] = {r: vs for r, vs in kept.items() if vs}
        K2._cache["components"] = {v: r for r, vs in kept.items() for v in vs}


@pytest.mark.parametrize("mutate", [_drop_an_edge, _skip_the_merge])
def test_the_gate_fails_on_a_mutant(mutate, monkeypatch):
    successor = SimplicialComplex._successor

    def mutant(self, removed, added):
        K2 = successor(self, removed, added)
        mutate(self, K2)
        return K2

    install_gate(monkeypatch, mutant)
    with pytest.raises(AssertionError):
        reducer.replay(reducer.reduce_complex(gen.staircase_sphere(4)).trace)


def test_rp2_second_summand_passes_the_gate(monkeypatch):
    K, trace = rp2_second_summand()
    tally = install_gate(monkeypatch, SimplicialComplex._successor)
    assert reducer.replay(trace) == K
    assert tally["updates"] == len(trace.forward_moves)
    assert _reduce_and_replay(K, tally).accepted


@pytest.mark.parametrize("mutate", LINKS_MUTANTS)
def test_the_gate_fails_on_a_links_mutant(mutate, monkeypatch):
    K, trace = rp2_second_summand()
    mutate(monkeypatch)
    install_gate(monkeypatch, SimplicialComplex._successor)
    with pytest.raises(AssertionError):
        reducer.replay(trace)
        reducer.reduce_complex(K)


@pytest.mark.parametrize("mutate", RULE_MUTANTS)
def test_the_gate_fails_on_a_move_rule_mutant(mutate, monkeypatch):
    runs = rule_runs()
    mutate(monkeypatch)
    install_gate(monkeypatch, SimplicialComplex._successor)
    with pytest.raises(AssertionError):
        for run in runs:
            run()


# ------------------------------------------------ the operation-count guard


def _replay_counts(n, monkeypatch):
    """Replay the reduction trace of staircase_sphere(n) and count, from
    the first forward move on, the facets each successor rewrites, the
    calls of ``clean_face`` and of ``SimplicialComplex.__init__``; and
    the facet counts of the complexes whose components are searched in
    full."""
    K = gen.staircase_sphere(n)
    trace = reducer.reduce_complex(K).trace
    counts = {"rewritten": [], "clean_face": 0, "init": 0, "searched": []}
    started = []
    successor = SimplicialComplex._successor
    clean_face = complexes.clean_face
    init = SimplicialComplex.__init__
    components = SimplicialComplex._components
    apply_record = moves.apply_record

    def counted_successor(self, removed, added):
        removed, added = set(removed), set(added)
        counts["rewritten"].append(len(removed) + len(added))
        return successor(self, removed, added)

    def counted_clean_face(vertices):
        counts["clean_face"] += bool(started)
        return clean_face(vertices)

    def counted_init(self, facets):
        counts["init"] += bool(started)
        init(self, facets)

    def counted_components(self):
        if "components" not in self._cache:
            counts["searched"].append(len(self.facets))
        return components(self)

    def starting(K, record):
        started.append(record)
        return apply_record(K, record)

    with monkeypatch.context() as m:
        m.setattr(SimplicialComplex, "_successor", counted_successor)
        m.setattr(SimplicialComplex, "__init__", counted_init)
        m.setattr(SimplicialComplex, "_components", counted_components)
        m.setattr(complexes, "clean_face", counted_clean_face)
        m.setattr(moves, "clean_face", counted_clean_face)
        m.setattr(moves, "apply_record", starting)
        assert reducer.replay(trace) == K
    assert len(started) == len(counts["rewritten"]) == n - 1
    return counts


@pytest.mark.parametrize("n", [32, 128])
def test_replay_work_per_move_does_not_grow(n, monkeypatch):
    counts = _replay_counts(n, monkeypatch)
    # a connected sum rewrites the stars of the glued facet's corners on
    # one side, which in a staircase sphere have at most 26 facets in
    # all, whatever the number of blocks
    assert max(counts["rewritten"]) <= 32
    assert counts["clean_face"] == counts["init"] == 0
    # the one full search is on the union of the n seeds
    assert counts["searched"] == [5 * n]
