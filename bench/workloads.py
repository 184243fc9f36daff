"""The benchmark's workloads, the timed operations and their checks.

Every workload is a list of inputs made from the benchmark seed.  One
pass runs each input's operations in a fixed order; the runner repeats
passes until its time is up.  Each operation is timed on its own,
includes building the ``SimplicialComplex`` it works on (users pay the
face and link memo fill on every new complex), and is checked against
invariants the benchmark computes itself.  An exception or a failed
check makes the operation a failure, listed with its input; the input
stays in the workload.  An isomorphism search that ends at its node
budget (``IsomorphismInconclusive``, the package's documented non-answer)
is timed like any other call and listed with its input as inconclusive.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import itertools
import json
import random
import statistics
import time
from pathlib import Path

from pseudoform import cli, complexes, generators, moves, reducer, rigidity
from pseudoform import io as pio
from pseudoform.errors import IsomorphismInconclusive

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
OUT = Path(__file__).resolve().parent / "out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

FIXTURE_NAMES = (
    "boundary4simplex", "stacked_sphere_8", "cross_polytope", "chain5",
    "chain9", "foldable_sphere", "folded_g2_3", "folded_g2_4",
    "double_fold_g2_6",
)
REJECTED_FIXTURE = "double_fold_g2_6"

# Timed operation -> end-to-end metric it is summed into.
OP_METRIC = {
    "gen": "gen_s",
    "admissible_folds": "gen_s",
    "validate": "validate_s",
    "reduce": "reduce_s",
    "replay": "replay_s",
    "rigidity": "rigidity_s",
    "iso": "iso_s",
}


# ---------------------------------------------------------------------
# the benchmark's own invariants
# ---------------------------------------------------------------------


def face_counts(rows) -> tuple:
    """(f0, f1, f2, f3) of a 3-complex given as sorted 4-tuples."""
    faces = [set() for _ in range(4)]
    for F in rows:
        for d in range(4):
            faces[d].update(itertools.combinations(F, d + 1))
    return tuple(len(s) for s in faces)


def g2_of(fc: tuple) -> int:
    return fc[1] - 4 * fc[0] + 10


def sphere_fvector(n: int) -> tuple:
    """Face counts of staircase_sphere(n) and spine_path_sphere(n)."""
    return (n + 4, 4 * n + 6, 6 * n + 4, 3 * n + 2)


FOLD_SHIFT = (-2, -5, -4, -2)


def iso_problem(mapping, rows1, rows2):
    if mapping is None:
        return "no isomorphism found"
    v1 = {x for F in rows1 for x in F}
    v2 = {x for F in rows2 for x in F}
    if set(mapping) != v1 or set(mapping.values()) != v2 or len(
            set(mapping.values())) != len(mapping):
        return "mapping is not a vertex bijection"
    target = {frozenset(F) for F in rows2}
    if any(frozenset(mapping[x] for x in F) not in target for F in rows1):
        return "mapping sends a facet to a non-facet"
    return None


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------
# harness: timing, failures, digests
# ---------------------------------------------------------------------


def listing(*counters) -> list:
    """(input id, op, problem) -> count maps, summed, as entries."""
    total: dict = {}
    for counts in counters:
        for key, n in counts.items():
            total[key] = total.get(key, 0) + n
    return [{"input": i, "op": o, "problem": p, "times": n}
            for (i, o, p), n in total.items()]


class Harness:
    """Times operations per input, runs their checks, keeps failures."""

    def __init__(self, expected=None, tracer=None):
        self.expected = expected  # {input id: {field: sha256}} or None
        self.tracer = tracer
        self.samples: dict = {}  # (input id, op, variant) -> [seconds]
        self.attempted = 0
        self.failed = 0
        self.failure_counts: dict = {}  # (input id, op, problem) -> n
        self.inconclusive_counts: dict = {}  # (input id, op, message) -> n
        self.digests: dict = {}

    def op(self, input_id: str, name: str, fn, check=None, variant=0):
        """Run ``fn`` timed, then ``check(result)`` untimed.

        ``check`` returns None when the output is right, else a
        description of what is wrong.  Returns the result, or None when
        the call raised or the check failed.  A call that raises
        ``IsomorphismInconclusive`` is timed and counted as inconclusive,
        not as failed.  Variants are runs of one operation on several
        versions of an input (the isomorphism search between several
        pairs of relabelings); the input's time is the median over its
        variants.
        """
        self.attempted += 1
        tr = self.tracer
        if tr is not None:
            tr.input_id = input_id
        try:
            t0 = time.perf_counter()
            try:
                result = fn()
            except IsomorphismInconclusive as exc:
                elapsed = time.perf_counter() - t0
                key = (input_id, name, str(exc))
                self.inconclusive_counts[key] = \
                    self.inconclusive_counts.get(key, 0) + 1
                self.samples.setdefault((input_id, name, variant),
                                        []).append(elapsed)
                return None
            elapsed = time.perf_counter() - t0
            if tr is not None:
                recording, tr.recording = tr.recording, False
            try:
                problem = check(result) if check else None
            finally:
                if tr is not None:
                    tr.recording = recording
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            key = (input_id, name, problem[:300])
            self.failure_counts[key] = self.failure_counts.get(key, 0) + 1
            return None
        self.samples.setdefault((input_id, name, variant), []).append(elapsed)
        return result

    def digest(self, input_id: str, field: str, text: str):
        """Record a digest; a problem string if it contradicts the
        frozen reference."""
        d = sha(text)
        self.digests.setdefault(input_id, {})[field] = d
        if self.expected is None:
            return None
        want = self.expected.get(input_id, {}).get(field)
        if want is None:
            return f"no frozen digest for {field}"
        if want != d:
            return f"{field} differs from the frozen reference"
        return None

    # -- summaries --------------------------------------------------------

    @property
    def failures(self) -> list:
        """Every distinct failure with its input and how often it hit."""
        return listing(self.failure_counts)

    @property
    def inconclusive(self) -> list:
        """Every distinct inconclusive call with its input and count."""
        return listing(self.inconclusive_counts)

    @property
    def n_inconclusive(self) -> int:
        return sum(self.inconclusive_counts.values())

    def medians(self) -> dict:
        """(input id, op) -> median over variants of the median over
        passes."""
        per_variant: dict = {}
        for (iid, op, _v), ts in self.samples.items():
            per_variant.setdefault((iid, op), []).append(statistics.median(ts))
        return {k: statistics.median(v) for k, v in per_variant.items()}

    def op_totals(self) -> dict:
        """Per op: sum over inputs of the input's median time."""
        out: dict = {}
        for (_iid, op), m in self.medians().items():
            out[op] = out.get(op, 0.0) + m
        return out

    def metric_totals(self) -> dict:
        """End-to-end metric -> summed time of the ops it covers."""
        out = dict.fromkeys(sorted(set(OP_METRIC.values())), 0.0)
        for op, t in self.op_totals().items():
            out[OP_METRIC[op]] += t
        return out

    def certify_latencies(self) -> list:
        """Per input: median reduce time plus median replay time."""
        med = self.medians()
        ids = sorted({iid for iid, op in med if op == "reduce"})
        return [med[(i, "reduce")] + med[(i, "replay")]
                for i in ids if (i, "replay") in med]


# ---------------------------------------------------------------------
# shared operations
# ---------------------------------------------------------------------


def _validate_check(h, iid, singular_kinds):
    def check(rep):
        if not rep.is_normal_closed:
            return f"not NormalClosed: {rep.summary()}"
        kinds = sorted(c.kind for _v, c in rep.singular_vertices)
        if singular_kinds is not None and kinds != singular_kinds:
            return f"singular links {kinds}, expected {singular_kinds}"
        return h.digest(iid, "validation", rep.summary())
    return check


def core_ops(h, iid, rows, fc, pass_no, *, seeds=None, folds=None,
             singular=None, rigidity_versions=None, iso_pairs=()):
    """validate, reduce, replay, rigidity and iso of one complex.

    ``rows`` are the complex's facets as sorted tuples, ``fc`` the face
    counts the benchmark computed from them.  Rigidity runs on each of
    ``rigidity_versions`` (default: ``rows``), the isomorphism search
    between the two sides of each of ``iso_pairs``: one variant of each
    per pass, taken in turn, so an op's time is the median over the
    variants the run reached.
    """
    g2 = g2_of(fc)
    SC = complexes.SimplicialComplex
    target = frozenset(frozenset(F) for F in rows)

    h.op(iid, "validate",
         lambda: complexes.validate_normal(SC(rows)),
         _validate_check(h, iid, singular))

    def do_reduce():
        rep = reducer.reduce_complex(SC(rows))
        text = reducer.format_trace(rep.trace) if rep.accepted else None
        return rep, text

    def check_reduce(out):
        rep, text = out
        if not rep.accepted:
            return f"rejected: {rep.reason}"
        n_seeds, _n_moves, n_folds = rep.trace.counts()
        if seeds is not None and n_seeds != seeds:
            return f"{n_seeds} seeds, expected {seeds}"
        if folds is not None and n_folds != folds:
            return f"{n_folds} folds, expected {folds}"
        if rep.trace.claimed_g2 != g2 or tuple(rep.trace.claimed_fcounts) != fc:
            return "trace claims other face counts or g2"
        return h.digest(iid, "trace", text)

    out = h.op(iid, "reduce", do_reduce, check_reduce)
    if out is not None:
        replay_text(h, iid, out[1], target)

    def check_rigidity(v):
        if not v.is_generically_rigid:
            return f"not generically rigid: {v}"
        if v.edge_excess != g2:
            return f"edge excess {v.edge_excess} != g2 {g2}"
        return h.digest(iid, "rigidity", str(v))

    versions = rigidity_versions or [rows]
    j = pass_no % len(versions)
    h.op(iid, "rigidity",
         lambda: rigidity.complex_rigidity(SC(versions[j])), check_rigidity,
         variant=j)

    if iso_pairs:
        j = pass_no % len(iso_pairs)
        one, other = iso_pairs[j]
        h.op(iid, "iso",
             lambda: complexes.find_isomorphism(SC(one), SC(other)),
             lambda m: iso_problem(m, one, other), variant=j)


def replay_text(h, iid, text, target):
    """Verify a trace text: parse plus replay, timed as one op."""

    def check(K):
        if K.facets != target:
            return "replay does not rebuild the reduced complex"
        if reducer.format_trace(reducer.parse_trace(text)) != text:
            return "format(parse(trace)) differs from the trace"
        return None

    return h.op(iid, "replay",
                lambda: reducer.replay(reducer.parse_trace(text)), check)


def _relabel(rows, mapping) -> list:
    return sorted(tuple(sorted(mapping[x] for x in F)) for F in rows)


def shuffled(rows, seed: int) -> list:
    """The facets under a seeded permutation of their own labels."""
    labels = sorted({x for F in rows for x in F})
    image = list(labels)
    random.Random(seed).shuffle(image)
    return _relabel(rows, dict(zip(labels, image)))


def spread(rows, seed: int) -> list:
    """The facets under a seeded order-preserving relabeling onto a
    range four times as wide.

    Every choice the package makes in label order stays the same, so
    the work does not depend on the seed; a permutation made reduce_s
    vary by 11% and rigidity_s by 19% between seeds (elimination and
    split order follow the labels).
    """
    labels = sorted({x for F in rows for x in F})
    image = sorted(random.Random(seed).sample(range(4 * len(labels)),
                                              len(labels)))
    return _relabel(rows, dict(zip(labels, image)))


def iso_pair(rows, seed: int) -> tuple:
    """Two seeded permutations of ``rows`` for the isomorphism search."""
    rng = random.Random(seed)
    return (shuffled(rows, rng.randrange(1 << 31)),
            shuffled(rows, rng.randrange(1 << 31)))


# Versions of a ladder rung that rigidity and the isomorphism search run
# on, one per pass in turn.  They are drawn from the rung's size, not
# from the benchmark seed.  Rigidity eliminates edges in the iteration
# order of a set of frozensets, which follows the label values: one
# folded spine_path_sphere(64) took 0.21 to 0.34 s over its seeded
# relabelings, and rigidity_s spread 10-12% between seeds even as the
# median over 8 of them.  Isomorphism searches took 0.34 to 0.99 s over
# seeded permutations of that rung, and iso_s spread 12%.
LADDER_VARIANTS = 4


def ladder_variants(facets, n: int) -> dict:
    """Order-preserving relabelings of a rung's facets (for rigidity)
    and pairs of permutations of them (for the isomorphism search)."""
    rng = random.Random(f"variants:{n}")
    return {
        "rigidity_versions": [spread(facets, rng.randrange(1 << 31))
                              for _ in range(LADDER_VARIANTS)],
        "iso_pairs": [iso_pair(facets, rng.randrange(1 << 31))
                      for _ in range(LADDER_VARIANTS)],
    }


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------


class _Ladder:
    """Rungs of a doubling ladder, each with a relabeling seed."""

    name = prefix = ""
    sizes: dict = {}

    def __init__(self, seed: int, size: str = "full"):
        rng = random.Random(f"{self.name}:{seed}")
        self.rungs = [(n, rng.randrange(1 << 31)) for n in self.sizes[size]]

    @property
    def input_ids(self):
        return [f"{self.prefix}{n}" for n, _s in self.rungs]


class StaircaseLadder(_Ladder):
    """staircase_sphere(n) on a doubling ladder, relabeled by the seed.

    Building the sphere is the rung's gen op (the ladder has no other
    generator call), so it is timed rather than done in set-up.
    """

    name, prefix = "staircase-ladder", "staircase"
    sizes = {"full": (8, 16, 32, 64), "tiny": (4, 8)}

    def run_item(self, h, i, pass_no):
        n, label_seed = self.rungs[i]
        iid = f"{self.prefix}{n}"

        def check_gen(facets):
            fc = face_counts(facets)
            if fc != sphere_fvector(n):
                return f"f={fc}, expected {sphere_fvector(n)}"
            return None

        facets = h.op(iid, "gen",
                      lambda: generators.staircase_sphere(n).canonical_facets(),
                      check_gen)
        if facets is None:
            return
        rows = spread(facets, label_seed)
        core_ops(h, iid, rows, face_counts(rows), pass_no, seeds=n, folds=0,
                 singular=[], **ladder_variants(facets, n))


class FoldLadder(_Ladder):
    """spine_path_sphere(n) on a doubling ladder, folded once.

    The spheres are built in set-up.  The fold is the middle one of the
    admissible list.  A fold drawn from the seed made reduce_s vary by
    26% between seeds: where the fold sits changes the reduction.
    """

    name, prefix = "fold-ladder", "spine"
    sizes = {"full": (8, 16, 32, 64), "tiny": (8, 12)}

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.spheres = [generators.spine_path_sphere(n).canonical_facets()
                        for n, _s in self.rungs]

    def run_item(self, h, i, pass_no):
        n, label_seed = self.rungs[i]
        iid = f"{self.prefix}{n}"
        sphere = self.spheres[i]
        SC = complexes.SimplicialComplex

        folds = h.op(iid, "admissible_folds",
                     lambda: generators.admissible_folds(SC(sphere)),
                     lambda fs: None if fs else "no admissible fold")
        if folds is None:
            return
        s1, s2, psi = folds[len(folds) // 2]
        want = tuple(a + b for a, b in zip(sphere_fvector(n), FOLD_SHIFT))

        def check_fold(facets):
            fc = face_counts(facets)
            if fc != want or g2_of(fc) != 3:
                return f"folded f={fc}, expected {want} with g2=3"
            return None

        facets = h.op(iid, "gen", lambda: moves.edge_fold(
            SC(sphere), s1, s2, dict(psi))[0].canonical_facets(), check_fold)
        if facets is None:
            return
        rows = spread(facets, label_seed)
        core_ops(h, iid, rows, face_counts(rows), pass_no, seeds=n, folds=1,
                 singular=["RP2", "RP2"],
                 **ladder_variants(facets, n))


class WalkCorpus:
    """A fixed corpus of random walks plus the fixtures through the CLI.

    The walks' own seeds are fixed: sphere walks use seeds 100, 101,
    ..., fold-enabled walks seeds 0, 1, ... (seeds 2 and 14 fold).
    Walks drawn from the benchmark seed made gen_s differ by up to 17%
    from one seed to the next.  The benchmark seed relabels each walk's
    complex (order-preserving, see ``spread``) before it is validated,
    reduced, replayed and checked, and a seed for the two permutations
    of it that the isomorphism search maps onto each other.
    """

    name = "walk-corpus"
    sizes = {"full": (100, 16), "tiny": (3, 3)}
    budget = 20

    def __init__(self, seed: int, size: str = "full"):
        rng = random.Random(f"{self.name}:{seed}")
        n_walks, n_fold_walks = self.sizes[size]
        self.items = []
        for k in range(n_walks + n_fold_walks):
            fold = k >= n_walks
            walk_seed = k - n_walks if fold else 100 + k
            spec = generators.GeneratorSpec(generators.RANDOM_MOVES, (
                ("seed", walk_seed),
                ("budget", self.budget),
                ("allow_fold", fold),
                ("g2_cap", 4 if fold else 9),
            ))
            iid = f"{'foldwalk' if fold else 'walk'}{walk_seed}"
            self.items.append(("walk", iid, spec, (rng.randrange(1 << 31),
                                                   rng.randrange(1 << 31))))
        OUT.mkdir(exist_ok=True)
        for name in FIXTURE_NAMES:
            path = FIXTURES / f"{name}.txt"
            rows = pio.load_complex(path).canonical_facets()
            self.items.append(("fixture", f"fixture:{name}", path, rows))

    @property
    def input_ids(self):
        return [item[1] for item in self.items]

    def run_item(self, h, i, pass_no):
        kind, iid, a, b = self.items[i]
        if kind == "walk":
            self._walk(h, iid, a, b, pass_no)
        else:
            self._fixture(h, iid, a, b)

    def _walk(self, h, iid, spec, seeds, pass_no):
        def build():
            g = generators.generate(spec)
            return g, g.complex.canonical_facets()

        def check_gen(out):
            g, facets = out
            fc = face_counts(facets)
            cap = spec.get("g2_cap")
            if g2_of(fc) > cap:
                return f"g2={g2_of(fc)} above the cap {cap}"
            if tuple(g.trace.claimed_fcounts) != fc:
                return "generator trace claims other face counts"
            return None

        out = h.op(iid, "gen", build, check_gen)
        if out is None:
            return
        rows = spread(out[1], seeds[0])
        core_ops(h, iid, rows, face_counts(rows), pass_no,
                 iso_pairs=[iso_pair(rows, seeds[1])])

    def _fixture(self, h, iid, path, rows):
        fc = face_counts(rows)
        g2 = g2_of(fc)
        name = path.stem
        trace_path = OUT / f"{name}.trace"

        def run_cli(argv):
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        def checked(field, want_code, test):
            def check(res):
                code, text = res
                if code != want_code:
                    return f"exit {code}, expected {want_code}: {text.strip()}"
                problem = test(json.loads(text))
                return problem or h.digest(iid, field, text)
            return check

        h.op(iid, "validate",
             lambda: run_cli(["validate", str(path), "--json"]),
             checked("cli-validate", 0, lambda p: None
                     if p["verdict"] == "NormalClosed" else "not normal"))

        if name == REJECTED_FIXTURE:
            h.op(iid, "reduce",
                 lambda: run_cli(["reduce", str(path), "--json"]),
                 checked("cli-reduce", 1, lambda p: None
                         if p["input_class"] == "Rejected" and p["reason"]
                         else "not rejected with a reason"))
        else:
            trace_path.unlink(missing_ok=True)
            ok = h.op(iid, "reduce",
                      lambda: run_cli(["reduce", str(path), "--json",
                                       "--trace", str(trace_path)]),
                      checked("cli-reduce", 0, lambda p: None
                              if p["g2"] == g2 else f"g2 {p['g2']} != {g2}"))
            if ok is not None:
                h.op(iid, "replay",
                     lambda: run_cli(["replay", str(trace_path), "--against",
                                      str(path), "--json"]),
                     checked("cli-replay", 0, lambda p: None
                             if p["matches"] and tuple(p["f"]) == fc
                             else "replay does not match the fixture"))

        h.op(iid, "rigidity",
             lambda: run_cli(["rigidity", str(path), "--json"]),
             checked("cli-rigidity", 0, lambda p: None
                     if p["rigid"] and p["edge_excess"] == g2
                     else f"rigidity verdict {p}"))


WORKLOADS = {w.name: w for w in (StaircaseLadder, FoldLadder, WalkCorpus)}


def load_expected(workload: str):
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload)
