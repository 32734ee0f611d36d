"""Instance generators: RNG, hardness gadgets, diameter pairs, random WGTs."""

import hashlib
import itertools
import time

import pytest

from phylocontract.errors import GenerationFailed, InvalidParameters, PhyloError
from phylocontract.errors import SyntaxError as ParseError
from phylocontract.galled import cycles, has_degree2_node, is_weakly_galled
from phylocontract.generators import (
    _new_cycle,
    _reaches,
    SetSplittingInstance,
    SplitMix64,
    deg_bounded_target,
    diameter_pair,
    five_leaves_target,
    format_set_splitting,
    is_splittable,
    parse_set_splitting,
    random_wgt,
    reduction_deg_bounded,
    reduction_five_leaves,
)
from phylocontract.io_enewick import write_enewick
from phylocontract.mcc_dp import solve
from phylocontract.mcc_oracle import is_contraction
from phylocontract.network_core import validate


# -- SplitMix64 -------------------------------------------------------------


def test_splitmix64_known_vectors():
    # Published test vectors for the splitmix64 stream.
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(1234567)
    assert [rng.next64() for _ in range(2)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
    ]


def test_splitmix64_derived_helpers_are_deterministic():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.randrange(100) for _ in range(20)] == [b.randrange(100) for _ in range(20)]
    assert a.randint(5, 9) == b.randint(5, 9)
    items = list(range(12))
    assert a.choice(items) == b.choice(items)
    xs, ys = list(range(10)), list(range(10))
    a.shuffle(xs)
    b.shuffle(ys)
    assert xs == ys and sorted(xs) == list(range(10))
    assert a.sample(items, 4) == b.sample(items, 4)


def test_splitmix64_randrange_bounds():
    rng = SplitMix64(7)
    vals = [rng.randrange(5) for _ in range(200)]
    assert set(vals) == {0, 1, 2, 3, 4}
    for n in (0, -3):
        with pytest.raises(InvalidParameters):
            rng.randrange(n)
    with pytest.raises(InvalidParameters):
        rng.randint(5, 3)


def test_splitmix64_shuffle_and_sample_frozen():
    h = hashlib.sha256()
    for seed in (0, 1, 2024, (1 << 64) - 1):
        rng = SplitMix64(seed)
        xs = list(range(10_000))
        rng.shuffle(xs)
        h.update(repr((xs, rng.sample(range(10_000), 2), rng.sample(xs, 10_000), rng.state)).encode())
    assert h.hexdigest() == "1403e75f6976ccec4950007d9b5732905a25c5f1bca584ac7033395a07220381"


_MASK64 = (1 << 64) - 1


def _unxorshift(y: int, s: int) -> int:
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _seed_whose_next64_is(out: int) -> int:
    """Invert the splitmix64 output mix, then step back one increment."""
    z = _unxorshift(out, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    z = _unxorshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & _MASK64


@pytest.mark.parametrize("n,first", [(10, _MASK64), (10, _MASK64 - 5), (7, 123), (1000, _MASK64 - 3)])
def test_splitmix64_shuffle_matches_randrange_reference(n, first):
    # The seed fixes the shuffle's first draw. Within 2**64 % n of the top,
    # it is above randrange(n)'s limit and drawn again; 123 is not.
    seed = _seed_whose_next64_is(first)
    assert SplitMix64(seed).next64() == first
    draws = n - 1 + (first > _MASK64 - (1 << 64) % n)
    ref, rng = SplitMix64(seed), SplitMix64(seed)
    want = list(range(n))
    for i in range(n - 1, 0, -1):
        j = ref.randrange(i + 1)
        want[i], want[j] = want[j], want[i]
    got = list(range(n))
    rng.shuffle(got)
    assert got == want and rng.state == ref.state
    assert rng.state == (seed + draws * 0x9E3779B97F4A7C15) & _MASK64


# -- Set Splitting instances ------------------------------------------------


def test_instance_rejects_duplicate_universe():
    with pytest.raises(InvalidParameters):
        SetSplittingInstance(universe=("1", "1"), sets=())


def test_instance_rejects_empty_set():
    with pytest.raises(InvalidParameters):
        SetSplittingInstance(universe=("1",), sets=(frozenset(),))


def test_instance_rejects_foreign_element():
    with pytest.raises(InvalidParameters):
        SetSplittingInstance(universe=("1",), sets=(frozenset({"2"}),))


def test_parse_format_round_trip():
    text = "a b c\na b\nb c\n"
    inst = parse_set_splitting(text)
    assert inst.universe == ("a", "b", "c")
    assert inst.sets == (frozenset({"a", "b"}), frozenset({"b", "c"}))
    assert parse_set_splitting(format_set_splitting(inst)) == inst


def test_parse_skips_comments_and_blanks():
    inst = parse_set_splitting("# instance\n\n1 2\n\n# sets\n1 2\n")
    assert inst.universe == ("1", "2")
    assert inst.sets == (frozenset({"1", "2"}),)


def test_parse_empty_raises():
    with pytest.raises(ParseError):
        parse_set_splitting("# nothing here\n")


def _splittable_reference(inst: SetSplittingInstance) -> bool:
    xs = inst.universe
    for bits in itertools.product([0, 1], repeat=len(xs)):
        side = {x for x, b in zip(xs, bits) if b}
        if all(s & side and s - side for s in inst.sets):
            return True
    return False


def test_is_splittable_examples():
    assert is_splittable(parse_set_splitting("1 2\n1 2\n"))
    assert not is_splittable(parse_set_splitting("1\n1\n"))
    # singleton set can never be cut
    assert not is_splittable(parse_set_splitting("1 2 3\n1 2\n3\n"))


def test_is_splittable_matches_reference_enumeration():
    rng = SplitMix64(2024)
    universe = ("1", "2", "3", "4")
    for _ in range(60):
        nsets = rng.randint(1, 3)
        sets = []
        for _ in range(nsets):
            size = rng.randint(1, 4)
            sets.append(frozenset(rng.sample(list(universe), size)))
        inst = SetSplittingInstance(universe=universe, sets=tuple(sets))
        assert is_splittable(inst) == _splittable_reference(inst)


# -- diameter pairs ----------------------------------------------------------


def test_diameter_pair_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        diameter_pair(3, 2, 2)
    with pytest.raises(InvalidParameters):
        diameter_pair(4, 1, 2)
    with pytest.raises(InvalidParameters):
        diameter_pair(4, 2, 1)


@pytest.mark.parametrize("l,m,mp", [(4, 2, 3), (4, 3, 3), (5, 4, 6), (6, 5, 7), (5, 6, 4)])
def test_diameter_pair_sizes_are_exact(l, m, mp):
    n1, n2 = diameter_pair(l, m, mp)
    assert len(n1.internal_nodes()) == m
    assert len(n2.internal_nodes()) == mp
    want = {str(i + 1) for i in range(l)}
    assert set(n1.leaf_label.values()) == want
    assert set(n2.leaf_label.values()) == want


@pytest.mark.parametrize("l,m,mp,want", [(4, 3, 3, 4), (5, 6, 4, 8), (4, 2, 2, 2)])
def test_diameter_pair_delta_examples(l, m, mp, want):
    n1, n2 = diameter_pair(l, m, mp)
    assert solve(n1, n2)[0] == want == m + mp - 2


def test_diameter_pair_sweep_is_exact_or_invalid():
    # Every call returns exactly (m, m') internal nodes or raises
    # InvalidParameters: no AssertionError, no validate error from inside.
    built = 0
    for l in range(4, 13):
        for m in range(2, 3 * l + 1):
            for mp in range(2, 3 * l + 1):
                try:
                    n1, n2 = diameter_pair(l, m, mp)
                except InvalidParameters:
                    continue
                assert (n1.num_internal, n2.num_internal) == (m, mp), (l, m, mp)
                assert n1.leaf_universe == n2.leaf_universe
                built += 1
    assert built == 3754


def test_diameter_pair_466_is_the_ladder_exception():
    # The only grid point without a weakly galled realization of the
    # root-leaf form; the emitted ladders still satisfy the size contract.
    n1, n2 = diameter_pair(4, 6, 6)
    assert not is_weakly_galled(n1)
    assert not is_weakly_galled(n2)
    assert len(n1.internal_nodes()) == len(n2.internal_nodes()) == 6


# -- hardness reductions ------------------------------------------------------


def test_deg_bounded_reduction_yes_instance():
    inst = parse_set_splitting("1 2\n1 2\n")
    na, nb, k = reduction_deg_bounded(inst)
    assert k == 3
    target = deg_bounded_target(inst)
    assert len(target.internal_nodes()) == 3
    assert is_contraction(na, target) is not None
    assert is_contraction(nb, target) is not None


def test_deg_bounded_reduction_no_instance():
    inst = parse_set_splitting("1\n1\n")
    na, nb, _ = reduction_deg_bounded(inst)
    target = deg_bounded_target(inst)
    assert is_contraction(na, target) is None or is_contraction(nb, target) is None


def test_deg_bounded_degree_stays_small():
    # With 3-element sets and at most 4 occurrences per element every node
    # keeps total degree at most 10.
    inst = SetSplittingInstance(
        universe=("1", "2", "3", "4"),
        sets=(frozenset("123"), frozenset("234"), frozenset("134")),
    )
    na, nb, _ = reduction_deg_bounded(inst)
    for net in (na, nb):
        for u in net.succ:
            assert len(net.succ[u]) + len(net.pred[u]) <= 10


def test_five_leaves_reduction_yes_instance():
    inst = parse_set_splitting("1 2\n1 2\n")
    na, nb, k = reduction_five_leaves(inst)
    assert k == 4
    assert is_contraction(na, nb) is not None


def test_five_leaves_reduction_no_instance():
    inst = parse_set_splitting("1\n1\n")
    na, nb, _ = reduction_five_leaves(inst)
    assert is_contraction(na, nb) is None


@pytest.mark.parametrize(
    "text",
    ["1 2\n1 2\n", "1\n1\n", "a b c\na b\nb c\na c\n", "1 2 3 4\n1 2 3\n2 3 4\n"],
)
def test_five_leaves_second_network_shape(text):
    # The target side is always the same skeleton: 5 leaves on a path of
    # 4 internal nodes, no reticulations.
    _, nb, _ = reduction_five_leaves(parse_set_splitting(text))
    assert len(nb.leaf_label) == 5
    assert len(nb.internal_nodes()) == 4
    assert not nb.reticulations()
    assert write_enewick(nb) == write_enewick(five_leaves_target())


def test_five_leaves_first_network_is_not_weakly_galled():
    na, nb, _ = reduction_five_leaves(parse_set_splitting("1 2\n1 2\n"))
    assert not is_weakly_galled(na)
    assert is_weakly_galled(nb)


# -- random weakly galled trees ----------------------------------------------


def test_random_wgt_is_deterministic():
    assert write_enewick(random_wgt(7, 2, 31)) == write_enewick(random_wgt(7, 2, 31))


def test_random_wgt_frozen_output():
    assert write_enewick(random_wgt(6, 2, 11)) == "(((1,(2)#H1),((3,(4)#H2),#H2,6),5),#H1);"


@pytest.mark.parametrize("leaves,retics,seed", [(3, 0, 5), (3, 1, 5), (6, 2, 11), (8, 3, 2)])
def test_random_wgt_counts_and_shape(leaves, retics, seed):
    net = random_wgt(leaves, retics, seed)
    assert len(net.leaf_label) == leaves
    assert set(net.leaf_label.values()) == {str(i + 1) for i in range(leaves)}
    assert len(net.reticulations()) == retics
    assert is_weakly_galled(net)
    assert not has_degree2_node(net)


def test_random_wgt_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        random_wgt(0, 0, 1)
    with pytest.raises(InvalidParameters):
        random_wgt(3, -1, 1)


def test_random_wgt_reports_infeasible_parameters():
    # Two leaves cannot host two edge-disjoint cycles.
    with pytest.raises(GenerationFailed):
        random_wgt(2, 2, 0)


def test_random_wgt_distinct_seeds_vary():
    texts = {write_enewick(random_wgt(6, 1, s)) for s in range(25)}
    assert len(texts) > 5


def _whole_network_test(net, e1, e2, fresh):
    """Reference for random_wgt's local acceptance test: orient the pair,
    build the whole network with the new cycle, validate it and test it
    whole. Returns the oriented pair and the new network, or None if
    rejected."""
    if net.reaches(e2[1], e1[0]) or e2[1] == e1[0]:
        e1, e2 = e2, e1
    s1, s2 = fresh, fresh + 1
    edges = set(net.edges())
    edges.discard(e1)
    edges.discard(e2)
    edges |= {(e1[0], s1), (s1, e1[1]), (e2[0], s2), (s2, e2[1]), (s1, s2)}
    try:
        cand = validate(edges, dict(net.leaf_label))
    except PhyloError:
        return e1, e2, None
    if len(cand.reticulations()) == len(net.reticulations()) + 1 and is_weakly_galled(cand):
        return e1, e2, cand
    return e1, e2, None


def test_local_acceptance_matches_whole_network_test():
    nets = []
    for leaves in range(3, 12):
        for retics in range(4):
            try:
                nets.append(random_wgt(leaves, retics, 0))
            except GenerationFailed:
                pass
    assert len(nets) >= 30
    decided = {True: 0, False: 0}
    for net in nets:
        marked = set().union(*(c.edges() for c in cycles(net)))
        candidates = [e for e in sorted(net.edges()) if e not in marked]
        up = {v: u for u, v in candidates}
        pred = {v: list(ps) for v, ps in net.pred.items()}
        s1 = max(net.succ) + 1
        s2 = s1 + 1
        for x, y in itertools.permutations(candidates, 2):
            e1, e2, cand = _whole_network_test(net, x, y, s1)
            assert _reaches(pred, y[1], x[0]) == (e1 != x)
            cycle = _new_cycle(up, *e1, e2[0], s1, s2)
            assert (cycle is not None) == (cand is not None), (net.edges(), e1, e2)
            decided[cand is not None] += 1
            if cand is not None:
                want = next(c for c in cycles(cand) if c.reticulation == s2).edges()
                assert sorted(cycle) == sorted(want)
    assert min(decided.values()) > 1000, decided


def _insertion_ordered(n) -> str:
    return repr((list(n.succ.items()), list(n.pred.items()), list(n.leaf_label.items()), n.root))


def test_random_wgt_grid_frozen():
    # Insertion-ordered adjacency and labels, and every failure message, over
    # 1920 seeded calls; recorded before the local acceptance test existed.
    h = hashlib.sha256()
    for leaves in range(1, 81):
        for retics in range(8):
            for seed in (0, 1, 2):
                try:
                    n = random_wgt(leaves, retics, seed)
                except GenerationFailed as exc:
                    h.update(f"{leaves} {retics} {seed}: {exc}\n".encode())
                    continue
                h.update(_insertion_ordered(n).encode())
    assert h.hexdigest() == "93fcb13bd522452938e1180ac7025a4469491335aa2e525e51b64a622898cafb"


def test_random_wgt_scale():
    # 3640 nodes, 20 reticulations, under a wall-time ceiling; same network
    # as the whole-network acceptance test produced.
    start = time.perf_counter()
    n = random_wgt(2200, 20, 0)
    elapsed = time.perf_counter() - start
    assert len(n.succ) == 3640
    digest = hashlib.sha256(_insertion_ordered(n).encode()).hexdigest()
    assert digest == "2d8ce25ef56bfa3d7a73e73071f7c99f648ce9a11591440b5595123042e9844f"
    assert elapsed < 10.0, elapsed


# -- frozen node ids ----------------------------------------------------------
# The eNewick tests above freeze labels and shape; these freeze node ids too.
# Each case hashes (sorted edges, sorted leaf labels) of every network built.


def _frozen_ids(nets) -> str:
    ids = [(sorted(n.edges()), sorted(n.leaf_label.items())) for n in nets]
    return hashlib.sha256(repr(ids).encode()).hexdigest()[:16]


def _diameter_grid(l):
    return [n for m in range(2, 8) for mp in range(2, 8) for n in diameter_pair(l, m, mp)]


def _reductions(text):
    inst = parse_set_splitting(text)
    return [
        *reduction_deg_bounded(inst)[:2],
        deg_bounded_target(inst),
        *reduction_five_leaves(inst)[:2],
        five_leaves_target(),
    ]


@pytest.mark.parametrize(
    "build,want",
    [
        pytest.param(lambda: _diameter_grid(4), "62c9c3dd56da7930", id="diameter-4"),
        pytest.param(lambda: _diameter_grid(5), "15d6b0e7a4e46c48", id="diameter-5"),
        pytest.param(lambda: _diameter_grid(6), "a9b5e78ba9f64ca0", id="diameter-6"),
        pytest.param(lambda: _reductions("1 2\n1 2\n"), "b12b2b99556b386e", id="reductions-12"),
        pytest.param(lambda: _reductions("1\n1\n"), "432728031ab0f780", id="reductions-1"),
        pytest.param(
            lambda: _reductions("a b c\na b\nb c\na c\n"), "b25d5fe7e7af0c44", id="reductions-abc"
        ),
        pytest.param(lambda: [random_wgt(1, 0, 0)], "9eed4f170beebc55", id="random-1-0-0"),
        pytest.param(lambda: [random_wgt(6, 2, 11)], "a407e3149b8cdea7", id="random-6-2-11"),
        pytest.param(lambda: [random_wgt(12, 3, 1)], "5640f9ef86a93066", id="random-12-3-1"),
        pytest.param(lambda: [random_wgt(20, 4, 2)], "477087c15032b606", id="random-20-4-2"),
        pytest.param(lambda: [random_wgt(30, 5, 3)], "e3072185915fd912", id="random-30-5-3"),
    ],
)
def test_generator_node_ids_are_frozen(build, want):
    assert _frozen_ids(build()) == want


def test_five_leaves_target_ids():
    n = five_leaves_target()
    assert sorted(n.edges()) == [(0, 1), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (3, 8)]
    assert sorted(n.leaf_label.items()) == [(4, "l1"), (5, "l2"), (6, "l3"), (7, "l4"), (8, "l4p")]
