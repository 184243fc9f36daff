"""The reducer's single loop over its rule table.

Pins the reducer's output (trace text, rule log, rejection reason) on a
fixed set of inputs, runs each rule's step on an input where it applies
and checks that the forward record it returns rebuilds the input, and
reduces a deep split tree under a tight recursion limit.
"""

import hashlib
import sys

import pytest

from pseudoform import complexes, generators as gen, moves, reducer
from pseudoform.complexes import SimplicialComplex, total_g2

from conftest import COMPLEX_FIXTURES, fold_rung

# sha256 of the trace text, the rule log and the reason (see
# fingerprint), for the fixtures, the cross-polytope, staircase
# spheres, folded spine spheres, sphere walks (seeds 100-119) and fold
# walks (seeds 0-19) at budget 20, and the empty complex.
PINNED = {
    "boundary4simplex": "5257e6ed6e2d2a7079da7c30f033331dbf8c22f0640d5a694a93d17fcb29dcb8",
    "stacked_sphere_8": "4467498b1f2d44056a63ca9d45949e9199688b94def1c7e21d773e85113495c8",
    "cross_polytope": "fbe5107fdf6b454ab2d0a0ab62a8b1dd75242a6ea4613836b8e57057664de3fd",
    "chain5": "7d83286b1982031efa9b88bfcb04db7244447e5fc5274a5d68d6f13246912069",
    "chain9": "7e5d8a8b7a12107c359b2f31ebefe0b3d633235b50ba830a49e0b8134051e889",
    "foldable_sphere": "9e68c6b52b08178cc04db67965625bba37601b35a7506246eecf139a958a7a61",
    "folded_g2_3": "aed1e5452b0e564f40be22bc6f73a4b145125a4b3452028f45aceac0b3cdfbaf",
    "folded_g2_4": "bc0207232fb951c7f31d2406011eed3ac90a6f24ff29d585dad112b36f5fbd15",
    "double_fold_g2_6": "e17735d1a6ea5be850effbbc7c2ef3a4f89ff9b91b17e3ba1c782e88dde07d0b",
    "cross": "fbe5107fdf6b454ab2d0a0ab62a8b1dd75242a6ea4613836b8e57057664de3fd",
    "staircase1": "5257e6ed6e2d2a7079da7c30f033331dbf8c22f0640d5a694a93d17fcb29dcb8",
    "staircase2": "48ce9608cc329ed182b0098e83cf4c82cf65bcbdf43c4f0e562259d2f099252a",
    "staircase3": "df69796e90000065b6eb8c5fe7c5fce3f8824fca75099239a0fd905ebcd91746",
    "staircase4": "4467498b1f2d44056a63ca9d45949e9199688b94def1c7e21d773e85113495c8",
    "staircase5": "7d83286b1982031efa9b88bfcb04db7244447e5fc5274a5d68d6f13246912069",
    "spinefold5": "6147b90e26bdd4b693bb00711026e312d187e071831ee449a02a6a2ece792a03",
    "staircase6": "c7956e2a44f2ed131b30a529221be39eb53ca2c3e55687f46b82ea1dc06e71f1",
    "spinefold6": "e2086654b0fc4440de91fe050391c0dbfd960820517b80fe9511fec7c6aaece8",
    "staircase7": "0d486dc686ad70a1eefcfb16fd49a4ea2cae8ee235d293c8316848b99deaf433",
    "spinefold7": "6a54b0f7f8a6fae599b65b76ae242ccbfdfc3fc8770334b7068059eb7a2b8ffe",
    "staircase8": "199fb4ea3f383577adbb2f01312150016015ce20db33a33dc68e6c74eef13716",
    "spinefold8": "16879f6bd279101bf97ee74130f8646994a29747fd3e47e13c366782dc14d499",
    "staircase12": "624a0d93cafcb46818a6f0a0f9729185e1314f4e2e563889e5d4b519bd83c339",
    "spinefold12": "6325de7b7e821eee6a807a3beadf796b40e4279d22d4021ff5b42dac18b17996",
    "staircase16": "303b55344a9b680d0430e3c830f80370f4fa1b1cbda44afd710d4ec9eba15dac",
    "spinefold16": "d3765e11ff7c86b19649f2c06887edc65beaac1b757e4d2a2b245adeb23538ea",
    "staircase24": "b2c59c088007e602395eaa3546545bef0622e1ea7e48c253ccd5ddc36d9e4514",
    "spinefold24": "7cb19a4274f16002c5b69c9e4b350d238920d5ef0aa1e64f77ec3a110d6ba970",
    "staircase32": "1c2f07da08e3f9e974b54d5f6237f9d85640cea350b4d2e4f3e1f941f8b94f2b",
    "spinefold32": "49c4c76b0cb4e8906f51169663a5cb63cedb70b502f3f1c41d64c8c969bdb82c",
    "walk100": "82850b4072ba2ebf271cb4c4718cadb6e5c95e81b18c6a13f10edbd0ac6f01ab",
    "walk101": "7eb7970cfb4ebb88eff3032a061b3ba1aecdbc741ea2985f0b8f73530ffd8421",
    "walk102": "04712df81cf2ce99bcb504e7314d3bbad371b56bf3d68de1b9ced2f5860224a7",
    "walk103": "76b39c4f3a4f7b9fcbe6af7de3191d96691404e335ac3aaf38907b5cff40b9ca",
    "walk104": "c928ec3b9c448015084f017b5161c01f4aa15b822caac02170e6a53aeafa53cc",
    "walk105": "40af35fcf5f5ce49a706ff08559ff5649da739c510d32c31b44807c27f9617d4",
    "walk106": "67241861cd988c1ef83a817d98d0a1d047aa5db4984b72d5f3e022c7f8eb82f4",
    "walk107": "68b598f6516acbbc23053fc0df95410e2609026874b917a21ffc51c3b85e8b46",
    "walk108": "7b4ce1fc7f209472357ef03aab60a7647d6e4c53546548ea32fa47605d8acdba",
    "walk109": "2994249ec35b8f33ff78ac1f83be03efe4c25af583ec26f250b3f3807ba0dd6d",
    "walk110": "7cb575513f89c197e4344e6fa27cc0e8cfab488cdee6616ae63192bb8cf3c20f",
    "walk111": "2a5c01f590a068baaf4a8acd866c491dbc23f3eceec46af011051b16ea8f8e73",
    "walk112": "0b4d1d7cbe2dcd56b5a0aabd8465c46be2faf8f7839e9befae1a7c3d2d36d735",
    "walk113": "c1ffd80fa441c0686ce609a620a876e43b242c71d334669476e9d64fe6a9f777",
    "walk114": "49ef7ea074e711f6a3b850fadc2b867f1c4823a4e858e1df2b4293a4740a3b5a",
    "walk115": "3ca36c8912fe40653f9a04b0a60f6cd465917062bb955c28e8e1c52725fe9621",
    "walk116": "788be2fec14923c2bcedb270d8f46ddb9013102c9c37c41035e2a2c89ab1b923",
    "walk117": "69d12c0af4ac62cd69c032e2217f8e12725d56d29ded898fbc3c79fad786aa4c",
    "walk118": "a86b29f91eb7b457237603e97e5f0a4263cd7ada23f1fd1217553da16e39306e",
    "walk119": "7b85eb58a18d10641a595e4167dd18c47d93f65f2b9332597b001688b7bfc973",
    "foldwalk0": "f73680b5f8e13b843264cd106e9718a9c14170d9edd94a369ba7b76091a5d059",
    "foldwalk1": "d042d6ce664912237c0f96dc513ea979606d6a96e831f4fb7c006044f55984a6",
    "foldwalk2": "b40a324d3b0273a5e09127a68b7a132eba7ff736534a0c082dbcb8ca067d2f85",
    "foldwalk3": "426fb37b198de77777d5bc3360b8b641972fed4e35efea827c2f3d1d19b30411",
    "foldwalk4": "790ae1068777b9a53a2249818a61b00d35e8f241add19dc721dfd2fc61cc8be4",
    "foldwalk5": "8a41f8a7f87714461985e1f8a60e50112d71eeb24dc98cc1915a87bf5b830e90",
    "foldwalk6": "ea4ad11937f34f2c3147a59fc06e9a9ddb8868d99098b64633e8313494692d54",
    "foldwalk7": "dc8d10dcb670dacaa0bb60b572579a790f70a170f8e2820b8ecf96dc1177dd8c",
    "foldwalk8": "f184fcdff43d2c0ef6c7c0a683e6ffa1310ad5af49e4f96fbd9cd15b038261cc",
    "foldwalk9": "46bc432a310dd1190bb366f8ab36707208ad0be6b907c396b9486522199ac92d",
    "foldwalk10": "a993862985fe2d5073c36f402daaf696bf5fadcb3a7b2e795935e4eb3c09f305",
    "foldwalk11": "ca1b36332ee1bfb7bf5c60fcaa106df9d9dcbd8a9cfa45ca3d7588c3af789aee",
    "foldwalk12": "6dc01d6a1382719a59f1cf7c3b367e3a7f9ca56fce3b2c7d6cebf5bd7dcca8c0",
    "foldwalk13": "89344b256c38163864edb95434007d9c0da1711f6e1a852ccf77441f4dbb7b2c",
    "foldwalk14": "a2e657d92225b10c7b644712a5963b71c7c24c1a8a80379aef042bd626efc17f",
    "foldwalk15": "4c95a397972bb7fc14427ffb0e2d124af06239fb240f233772e7c5fe4e3af02a",
    "foldwalk16": "92f81e7e1070e893e7161b27b0f18e67bd7dd0d4f470fa61fc7576aec0605875",
    "foldwalk17": "cd32108ad0506180fb6762769d1f12c92e88ee5a95854ca4ce3d6ee7667fce16",
    "foldwalk18": "3a6e2e8fc437b4637c3f21aa5789defbbcf787c0741e3324c8ca623b789b2c81",
    "foldwalk19": "88e26d5f48da2d79113d880dc97081aff8fcb97a25821c60acaf54114899daf3",
    "empty": "eae5c53bba439d93c3eaf56e317cfe794ead2f6cefa6ad7377f32671ac5778a2",
}

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32)


def fingerprint(report) -> str:
    trace = reducer.format_trace(report.trace) if report.trace else ""
    text = f"{trace}\n{report.rule_log!r}\n{report.reason!r}"
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_inputs(fx, walk):
    inputs = {name: fx(name) for name in COMPLEX_FIXTURES}
    inputs["cross"] = gen.cross_polytope()
    for n in SIZES:
        inputs[f"staircase{n}"] = gen.staircase_sphere(n)
        if n >= 5:  # smaller spine spheres have no admissible fold
            inputs[f"spinefold{n}"] = fold_rung(n)
    for seed in range(100, 120):
        inputs[f"walk{seed}"] = walk(seed, False).complex
    for seed in range(20):
        inputs[f"foldwalk{seed}"] = walk(seed, True).complex
    inputs["empty"] = SimplicialComplex([])
    return inputs


def test_reduce_output_is_pinned(fx, walk):
    got = {
        name: fingerprint(reducer.reduce_complex(K))
        for name, K in pinned_inputs(fx, walk).items()
    }
    assert got == PINNED


# ------------------------------------------------------------ rule steps

# An input on which each rule applies: (fold walk?, seed) at budget 20.
RULE_INPUTS = {
    "bistellar-down-at-degree-three-edge": (False, 108),
    "contract-link-condition-edge": (False, 108),
    "insert-through-missing-triangle": (False, 108),
    "unfold-at-moebius-tetrahedron": (True, 2),
    "contract-singular-incident-edge": (True, 2),
}


def test_every_rule_has_a_step_test():
    rules = {rule[0] for rules in reducer._RULES.values() for rule in rules}
    assert rules == set(RULE_INPUTS)
    assert reducer._RULES[reducer.CLASS_STACKED] == ()


@pytest.mark.parametrize("rule_id", sorted(RULE_INPUTS))
def test_rule_step_is_undone_by_its_forward_record(rule_id, walk):
    K = walk(*reversed(RULE_INPUTS[rule_id])).complex
    sing = dict(complexes.validate_normal(K).singular_vertices)
    cls = reducer._classify_component(K)
    (rule,) = [r for r in reducer._RULES[cls] if r[0] == rule_id]
    first = K.fresh_label()
    step = reducer._apply_rule(rule, K, first)
    assert step is not None
    after, _rec, forward, witness, next_label = step
    assert moves.apply_record(after, forward) == K
    # the step shrinks: g2 drops, or stays while facets disappear
    assert (total_g2(after), len(after.facets)) < (total_g2(K), len(K.facets))
    # fresh labels are exactly the ones the rule took
    assert after.vertices - K.vertices <= set(range(first, next_label))
    assert next_label - first == {
        moves.BISTELLAR2: 0, moves.EDGE_CONTRACT: 1,
        moves.TWO_FACETS_INSERT: 2, moves.EDGE_UNFOLD: 2,
    }[rule[1]]
    if rule_id == "contract-singular-incident-edge":
        assert (witness[0] in sing) != (witness[1] in sing)


# ------------------------------------------------------------ recursion


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_split_tree_needs_no_deep_stack():
    # staircase_sphere(200) splits into 200 seeds; a reducer that
    # recursed once per split needs 80 to 100 frames above the caller
    K = gen.staircase_sphere(200)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        report = reducer.reduce_complex(K)
    finally:
        sys.setrecursionlimit(old)
    assert report.accepted
    assert report.trace.counts() == (200, 199, 0)
