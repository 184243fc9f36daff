import pathlib

import pytest
from hypothesis import settings

from pseudoform import generators as gen, io as pio

# Property tests draw the same examples on every run, at a bounded cost
# and with no per-example deadline.
settings.register_profile(
    "pseudoform", derandomize=True, deadline=None, max_examples=50
)
settings.load_profile("pseudoform")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

COMPLEX_FIXTURES = (
    "boundary4simplex",
    "stacked_sphere_8",
    "cross_polytope",
    "chain5",
    "chain9",
    "foldable_sphere",
    "folded_g2_3",
    "folded_g2_4",
    "double_fold_g2_6",
)


# The benchmark's walk corpus: RandomMoves at budget 20, sphere walks by
# seed (g2 cap 9) and fold walks by seed (g2 cap 4).
SPHERE_WALK_SEEDS = range(100, 200)
FOLD_WALK_SEEDS = range(16)


def walk_spec(seed: int, fold: bool) -> "gen.GeneratorSpec":
    return gen.GeneratorSpec(gen.RANDOM_MOVES, (
        ("seed", seed), ("budget", 20), ("allow_fold", fold),
        ("g2_cap", 4 if fold else 9),
    ))


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.txt").read_text()


@pytest.fixture(scope="session", name="fixture_text")
def _fixture_text_fixture():
    return fixture_text


@pytest.fixture(scope="session")
def fx():
    """Loader for the frozen 3-complex fixtures, cached per session."""
    cache = {}

    def load(name):
        if name not in cache:
            cache[name] = pio.load_complex(FIXTURES / f"{name}.txt")
        return cache[name]

    return load


@pytest.fixture(scope="session")
def rp2_surface():
    return pio.load_surface(FIXTURES / "rp2_6.txt")


@pytest.fixture(scope="session")
def walk():
    """``walk(seed, fold)``: the generated walk of the corpus spec, each
    built once per session and shared, so no test may rely on the caches
    of its complexes being cold."""
    cache = {}

    def build(seed, fold):
        if (seed, fold) not in cache:
            cache[seed, fold] = gen.generate(walk_spec(seed, fold))
        return cache[seed, fold]

    return build
