"""Brute-force oracles: connected partitions, exhaustive search, tree case."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocontract import (
    diameter_pair,
    exact_mcc,
    is_contraction,
    is_isomorphic,
    parse_edgelist,
    parse_enewick,
    quotient,
    reduction_deg_bounded,
    reduction_five_leaves,
    solve,
    tree_mcc,
    validate_witness,
    write_enewick,
)
from phylocontract import cli, mcc_oracle
from phylocontract.cli import _witness_json
from phylocontract.errors import (
    BudgetExhausted,
    Degree2Node,
    LeafSetMismatch,
    NotATree,
    PhyloError,
    SizeCapExceeded,
)
from phylocontract.generators import SetSplittingInstance, SplitMix64
from phylocontract.mcc_oracle import connected_partitions
from tests.conftest import caterpillar_edgelist, gen_wgt, perturb


def set_partitions(items):
    """All set partitions, smallest-member-first blocks."""
    items = sorted(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            block = frozenset({first, *chosen})
            for tail in set_partitions(set(rest) - set(chosen)):
                yield [block, *tail]


def brute_connected_partitions(n):
    internals = set(n.internal_nodes())
    adj = {u: set() for u in internals}
    for u, v in n.edges():
        if u in internals and v in internals:
            adj[u].add(v)
            adj[v].add(u)

    def connected(block):
        block = set(block)
        seen = {min(block)}
        frontier = [min(block)]
        while frontier:
            x = frontier.pop()
            for y in adj[x] & block:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen == block

    return [p for p in set_partitions(internals) if all(connected(b) for b in p)]


@pytest.mark.parametrize(
    "text",
    ["(1,2,3);", "((1,2),3);", "(((1)#H1,2),(#H1,3));", "(((((1,2),3),4),5),6);"],
)
def test_connected_partitions_match_brute_force(text):
    n = parse_enewick(text)
    got = [frozenset(map(frozenset, p)) for p in connected_partitions(n)]
    want = [frozenset(map(frozenset, p)) for p in brute_connected_partitions(n)]
    assert len(got) == len(set(got)), "duplicates emitted"
    assert set(got) == set(want)


def test_connected_partition_counts():
    # path of 5 internal nodes: one partition per subset of the 4 path edges
    caterpillar = parse_enewick("(((((1,2),3),4),5),6);")
    assert sum(1 for _ in connected_partitions(caterpillar)) == 16
    # 4-cycle: 1 whole + C(4,2) + C(4,3) + C(4,4) arc splits
    g1 = parse_enewick("(((1)#H1,2),(#H1,3));")
    assert sum(1 for _ in connected_partitions(g1)) == 12


def test_partition_budget_raises():
    n = parse_enewick("(((((1,2),3),4),5),6);")
    with pytest.raises(BudgetExhausted):
        list(connected_partitions(n, budget=3))


def reference_partitions(n, tick):
    """The recursive frozenset enumerator `connected_partitions` replaced,
    with its budget check left to `tick`, called once per step."""
    internal = set(n.internal_nodes())
    nbrs = {u: set() for u in internal}
    for u, v in n.edges():
        if u in internal and v in internal:
            nbrs[u].add(v)
            nbrs[v].add(u)

    def subsets(seed, allowed):
        def rec(sub, pool, banned):
            tick()
            yield sub
            dropped = set(banned)
            for v in sorted(pool):
                grown = sub | {v}
                new_pool = (pool | (nbrs[v] & allowed)) - grown - dropped
                yield from rec(grown, frozenset(new_pool), frozenset(dropped))
                dropped.add(v)

        yield from rec(frozenset({seed}), frozenset(nbrs[seed] & allowed), frozenset())

    def rec(remaining):
        if not remaining:
            yield []
            return
        seed = min(remaining)
        for part in subsets(seed, remaining - {seed}):
            for tail in rec(remaining - part):
                yield [part, *tail]

    yield from rec(frozenset(nbrs))


def _enumeration_networks():
    """Seeded weakly galled trees with cycles and at most 9 internal nodes,
    both Set Splitting reductions, and the 4-5 leaf diameter pairs."""
    nets = []
    rng = SplitMix64(9009)
    while len(nets) < 8:
        n = gen_wgt(rng.randint(4, 7), rng.randint(1, 2), rng.randrange(1 << 30))
        if n.num_internal <= 9:
            nets.append(n)
    inst = SetSplittingInstance(("a",), (frozenset("a"),))
    for build in (reduction_deg_bounded, reduction_five_leaves):
        nets.extend(build(inst)[:2])
    for leaves, m, mprime in itertools.product((4, 5), range(2, 8), range(2, 8)):
        nets.extend(diameter_pair(leaves, m, mprime))
    unique = {write_enewick(n): n for n in nets}
    return list(unique.values())


def test_partition_order_and_budget_cuts_match_the_recursive_enumerator():
    for n in _enumeration_networks():
        # One run of the reference records where each step falls between
        # the partitions it yields; a budget of b cuts at step b + 1.
        events = []
        want = []
        for parts in reference_partitions(n, lambda: events.append(len(want))):
            want.append(parts)
        assert list(connected_partitions(n)) == want
        for budget in range(len(events) + 1):
            got = []
            message = f"^partition enumeration exceeded {budget} steps$"
            cut_short = pytest.raises(BudgetExhausted, match=message)
            with cut_short if budget < len(events) else nullcontext():
                for parts in connected_partitions(n, budget):
                    got.append(parts)
            cut = events[budget] if budget < len(events) else len(want)
            assert got == want[:cut], (write_enewick(n), budget)


def test_exact_mcc_fixture_values(t3a, t3b, g1, star3):
    assert exact_mcc(t3a, t3b)[0] == 2
    assert exact_mcc(t3a, star3)[0] == 1
    assert exact_mcc(g1, star3)[0] == 3
    assert exact_mcc(g1, g1)[0] == 0
    delta, m, w1, w2 = exact_mcc(t3a, t3b)
    assert m.num_internal == 1
    assert validate_witness(t3a, m, w1)[0]
    assert validate_witness(t3b, m, w2)[0]


def test_exact_mcc_refuses_large_inputs(t3a):
    big = parse_enewick("(((((((((((1,2),3),4),5),6),7),8),9),10),11),12);")
    assert big.num_internal == 11
    with pytest.raises(SizeCapExceeded):
        exact_mcc(big, big)
    assert exact_mcc(big, big, max_internal=11)[0] == 0


def test_exact_mcc_budget(t3a, t3b):
    with pytest.raises(BudgetExhausted):
        exact_mcc(t3a, t3b, budget=1)


def test_exact_mcc_leafset_mismatch(t3a):
    other = parse_enewick("((1,2),4);")
    with pytest.raises(LeafSetMismatch):
        exact_mcc(t3a, other)


def test_tree_mcc_leafset_mismatch(t3a):
    other = parse_enewick("((1,2),4);")
    with pytest.raises(LeafSetMismatch) as exc:
        tree_mcc(t3a, other)
    assert type(exc.value) is LeafSetMismatch
    assert str(exc.value) == "('1', '2', '3') vs ('1', '2', '4')"


def test_tree_mcc_matches_exact_on_fixtures(t3a, t3b, star3):
    for a, b in [(t3a, t3b), (t3a, star3), (t3a, t3a)]:
        got, m, w1, w2 = tree_mcc(a, b)
        assert got == exact_mcc(a, b)[0]
        assert validate_witness(a, m, w1)[0]
        assert validate_witness(b, m, w2)[0]


def test_tree_mcc_shared_clade_formula():
    a = parse_enewick("((((1,2),3),4),5);")
    b = parse_enewick("(((1,2),(3,4)),5);")
    # shared internal clades: {1,2}, {1,2,3,4} and the root
    assert tree_mcc(a, b)[0] == 4 + 4 - 2 * 3


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("((1,2,3));", "((1,2,3));", 0),
        ("((1,(2,3)));", "((1,2,3));", 1),
        ("((1,2,3));", "((1,(2,3)));", 1),
        ("(((1,2),3));", "((1,(2,3)));", 2),
        ("((1,2,3));", "(1,(2,3));", 2),
    ],
)
def test_tree_mcc_keeps_both_single_child_roots(a, b, want):
    # The root is exempt from the degree-2 rule, so a root with one internal
    # child carries the full clade twice; two such roots share both nodes.
    t1, t2 = parse_enewick(a), parse_enewick(b)
    delta, m, w1, w2 = tree_mcc(t1, t2)
    assert delta == want == exact_mcc(t1, t2)[0] == solve(t1, t2)[0]
    assert validate_witness(t1, m, w1)[0]
    assert validate_witness(t2, m, w2)[0]


def test_tree_mcc_rejects_networks_and_degree2(g1):
    with pytest.raises(NotATree):
        tree_mcc(g1, g1)
    deg2 = parse_enewick("(((1,2)),3);")
    with pytest.raises(Degree2Node):
        tree_mcc(deg2, deg2)


def test_is_contraction_positive_and_negative(t3a, star3, g1):
    w = is_contraction(t3a, star3)
    assert w is not None
    assert validate_witness(t3a, star3, w)[0]
    assert is_contraction(star3, t3a) is None
    assert is_contraction(g1, star3) is not None
    # identity is a contraction via singleton parts
    w = is_contraction(g1, g1)
    assert w is not None and len(w.parts) == g1.num_internal


def test_is_contraction_of_relabeled_target(t3a):
    renamed = parse_enewick("((1,2),4);")
    with pytest.raises(LeafSetMismatch):
        is_contraction(t3a, renamed)


def test_oracle_leaves_the_recursion_limit_alone(monkeypatch, tmp_path, capsys):
    # 1500 levels pass Python's default recursion limit; neither the search
    # nor the enumeration may recurse per level or raise the limit.
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    text = caterpillar_edgelist(1500)
    n = parse_edgelist(text)
    w = is_contraction(n, n)
    assert w is not None and validate_witness(n, n, w)[0]
    with pytest.raises(BudgetExhausted):
        exact_mcc(n, n, max_internal=5000, budget=10_000)
    path = tmp_path / "c.edges"
    path.write_text(text, encoding="utf-8")
    argv = ["--format", "edgelist", "mcc", "exact", str(path), str(path)]
    code = cli.main([*argv, "--max-internal", "5000", "--budget", "10000"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: BudgetExhausted:")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_exact_mcc_common_is_contraction_of_both(seed):
    n1 = gen_wgt(4, seed % 2, seed)
    n2 = gen_wgt(4, (seed + 1) % 2, seed + 500)
    delta, m, w1, w2 = exact_mcc(n1, n2)
    assert is_contraction(n1, m) is not None
    assert is_contraction(n2, m) is not None
    assert delta == n1.num_internal + n2.num_internal - 2 * m.num_internal


# -- pinned outputs ---------------------------------------------------------------


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _result_line(result) -> str:
    delta, m, w1, w2 = result
    return json.dumps([delta, write_enewick(m), _witness_json(w1), _witness_json(w2)])


def _tree_pairs():
    """Hand-made edge cases, then seeded random trees against a contracted
    copy and against an independent tree, in both orders."""
    texts = (("((1,2,3));", "(1,(2,3));"), ("(1);", "(1);"), ("((1,2),3);", "(1,2,3);"))
    pairs = [(parse_enewick(a), parse_enewick(b)) for a, b in texts]
    rng = SplitMix64(6006)
    for i in range(24):
        leaves = rng.randint(3, 90)
        t = gen_wgt(leaves, 0, rng.randrange(1 << 30))
        if i % 2:
            other = gen_wgt(leaves, 0, rng.randrange(1 << 30))
        else:
            other = perturb(t, rng.randint(1, 12), rng.randrange(1 << 30))
        pairs.append((t, other) if i % 4 < 2 else (other, t))
    return pairs


def test_tree_mcc_output_is_pinned():
    lines = [_result_line(tree_mcc(t1, t2)) for t1, t2 in _tree_pairs()]
    assert _digest(lines) == TREE_MCC_DIGEST


def _oracle_pairs():
    """Seeded small pairs: random weakly galled trees against a contracted
    copy (in both orders) and against an independent network, plus both Set
    Splitting reductions of an unsplittable instance."""
    rng = SplitMix64(8008)
    pairs = []
    while len(pairs) < 36:
        leaves = rng.randint(3, 6)
        n = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        kind = len(pairs) % 3
        if kind == 2:
            other = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        else:
            other = perturb(n, rng.randint(1, 3), rng.randrange(1 << 30))
        if max(n.num_internal, other.num_internal) <= 9:
            pairs.append((other, n) if kind == 1 else (n, other))
    inst = SetSplittingInstance(("a", "b"), (frozenset("a"),))
    for build in (reduction_deg_bounded, reduction_five_leaves):
        n1, n2, _ = build(inst)
        pairs.append((n1, n2))
    return pairs


ORACLE_BUDGETS = (None, 1, 3, 10, 30, 100, 300, 1000)


def _oracle_outcomes() -> list[str]:
    """exact_mcc's result, or the budget error, per pair and budget."""
    lines = []
    for n1, n2 in _oracle_pairs():
        for budget in ORACLE_BUDGETS:
            try:
                result = exact_mcc(n1, n2, max_internal=12, budget=budget)
            except BudgetExhausted:
                lines.append(f"{budget} BudgetExhausted")
            else:
                lines.append(f"{budget} {_result_line(result)}")
    return lines


def test_exact_mcc_output_and_budget_outcomes_are_pinned():
    assert _digest(_oracle_outcomes()) == EXACT_MCC_DIGEST


def _part_masks(n, parts) -> tuple[int, ...]:
    """A partition of I(n) as the part masks `_prefilter` takes."""
    bit = mcc_oracle._node_bits(n)
    return tuple(sum(bit[u] for u in p) for p in parts)


def test_prefilter_refuses_exactly_the_pre_search_refusals():
    # On every connected partition with a valid quotient, the prefilter
    # refuses iff is_contraction returns None before its first step (a
    # budget of 0 makes that first step raise).
    refused = kept = 0
    for n1, n2 in _oracle_pairs():
        doomed = mcc_oracle._prefilter(n1, mcc_oracle._prepare(n2))
        for parts in connected_partitions(n1):
            try:
                m = quotient(n1, [set(p) for p in parts])
            except PhyloError:
                continue
            try:
                pre_search = is_contraction(n2, m, budget=0) is None
            except BudgetExhausted:
                pre_search = False
            assert doomed(_part_masks(n1, parts)) == pre_search, (write_enewick(n1), write_enewick(n2), parts)
            refused += pre_search
            kept += not pre_search
    assert refused > kept > 0


def _small_oracle_pairs():
    """Seeded pairs shaped like the benchmark's `oracle_small`: a first
    network of 3 to 10 internal nodes against a copy with 1 to 3
    contractions, or (one in three) against an independent network of at
    most 10 internal nodes."""
    rng = SplitMix64(2727)
    pairs = []
    for i in range(32):
        internal = 3 + i % 8
        while True:
            retics = rng.randint(0, min(2, (internal - 1) // 2))
            tree_internal = internal - 2 * retics
            leaves = rng.randint(tree_internal + 1, 2 * tree_internal + 1)
            if retics == 2 and leaves < 5:
                continue
            n = gen_wgt(leaves, retics, rng.randrange(1 << 30))
            if n.num_internal == internal:
                break
        if i % 3:
            pairs.append((n, perturb(n, 1 + i % 3, rng.randrange(1 << 30))))
            continue
        while True:
            other = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
            if other.num_internal <= 10:
                break
        pairs.append((n, other))
    return pairs


# Pairs on which a later partition with as many parts as the best so far
# wins the tie-break, which a prune that drops ties would miss.
TIE_BREAK_PAIRS = (
    ("(((1)#H1,(#H1,4)),((2,(3)#H2),#H2));", "((1,(2)#H1),((#H1,3),4));"),
    ("((1)#H1,(#H1,((2)#H2,(#H2,3))));", "((1,(2,3)));"),
    ("((1,4),((2,(5)#H1,6),#H1),3);", "(1,(2,5,6),3,4);"),
)


def test_pruned_enumeration_gives_the_unpruned_result():
    # With a budget exact_mcc walks every connected partition; without one
    # it prunes. Both must return the same delta, common contraction and
    # witnesses.
    ties = [(parse_enewick(a), parse_enewick(b)) for a, b in TIE_BREAK_PAIRS]
    pairs = [*_oracle_pairs(), *_small_oracle_pairs(), *ties]
    for n1, n2 in pairs:
        delta, m, w1, w2 = exact_mcc(n1, n2, max_internal=12)
        full = exact_mcc(n1, n2, max_internal=12, budget=10**9)
        assert (delta, write_enewick(m), w1, w2) == (
            full[0],
            write_enewick(full[1]),
            full[2],
            full[3],
        ), (write_enewick(n1), write_enewick(n2))


def test_pruning_drops_most_partitions(monkeypatch):
    # exact_mcc's loop sees under 15% of the connected partitions.
    enumerate_masks = mcc_oracle._partition_masks
    seen = 0

    def counted(nbr, budget, prune=None):
        nonlocal seen
        for masks in enumerate_masks(nbr, budget, prune):
            seen += 1
            yield masks

    pairs = _small_oracle_pairs()
    total = sum(sum(1 for _ in connected_partitions(n1)) for n1, _ in pairs)
    monkeypatch.setattr(mcc_oracle, "_partition_masks", counted)
    for n1, n2 in pairs:
        exact_mcc(n1, n2)
    assert 0 < seen < 0.15 * total, (seen, total)


def _image_fields(image):
    """An `_Image` without its network builder, in plain types."""
    return (
        sorted(image.internal),
        [image.clades[u] for u in sorted(image.internal)],
        image.edges,
        image.root,
        image.leaf_parent,
    )


def test_mask_image_matches_the_quotient():
    # On every connected partition, the image read off the masks is None
    # exactly when quotient raises, and otherwise is the quotient's.
    nets = _enumeration_networks()
    nets += [n for pair in _small_oracle_pairs() for n in pair if n.num_internal <= 9]
    cyclic = acyclic = 0
    for n in nets:
        image = mcc_oracle._mask_images(n)
        for parts in connected_partitions(n):
            got = image(_part_masks(n, parts))
            try:
                m = quotient(n, [sorted(p) for p in parts])
            except PhyloError:
                assert got is None, (write_enewick(n), parts)
                cyclic += 1
                continue
            assert got is not None, (write_enewick(n), parts)
            assert _image_fields(got) == _image_fields(mcc_oracle._image(m))
            assert write_enewick(got.network()) == write_enewick(m)
            acyclic += 1
    assert acyclic > cyclic > 0


def test_partition_order_on_masks_is_the_sorted_node_order():
    # _before compares two partitions of as many parts on their masks as
    # their sorted tuples of sorted node tuples compare.
    for n in _enumeration_networks()[:6]:
        by_count = {}
        for parts in connected_partitions(n):
            canon = tuple(tuple(sorted(p)) for p in parts)
            by_count.setdefault(len(parts), []).append((_part_masks(n, parts), canon))
        for group in by_count.values():
            for (a, ca), (b, cb) in itertools.product(group, repeat=2):
                assert mcc_oracle._before(a, b) == (ca < cb), (ca, cb)


def _contraction_cases():
    """(n, targets): quotients of n by every third connected partition, n
    itself, and independent networks on n's leaves."""
    rng = SplitMix64(7007)
    cases = []
    for _ in range(12):
        leaves = rng.randint(3, 6)
        n = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        targets = [n]
        for i, parts in enumerate(connected_partitions(n)):
            if i % 3 == 0:
                try:
                    targets.append(quotient(n, [set(p) for p in parts]))
                except PhyloError:
                    pass
        targets += [gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30)) for _ in range(3)]
        cases.append((n, targets))
    return cases


def _contraction_witnesses(prepare) -> list[str]:
    """The witness per (n, target) case, each target searched through
    `prepare(n)`, a function of one target."""
    lines = []
    for i, (n, targets) in enumerate(_contraction_cases()):
        search = prepare(n)
        for j, m in enumerate(targets):
            w = search(m)
            lines.append(f"{i} {j} {None if w is None else json.dumps(_witness_json(w))}")
    return lines


def test_one_prepared_target_serves_many_searches():
    fresh = _contraction_witnesses(lambda n: lambda m: is_contraction(n, m))
    def prepare(n):
        search = functools.partial(mcc_oracle._search, mcc_oracle._prepare(n))
        return lambda m: search(mcc_oracle._image(m))

    prepared = _contraction_witnesses(prepare)
    assert prepared == fresh
    assert sum(" None" not in line for line in fresh) > len(fresh) // 2
    assert _digest(fresh) == CONTRACTION_DIGEST


SEARCH_BUDGETS = (*range(41), None)


def test_search_step_counts_are_pinned():
    # Where the search's budget cuts: per case and budget, the witness, None,
    # or the budget error. One step is one candidate part tried for one node.
    lines = []
    for i, (n, targets) in enumerate(_contraction_cases()):
        for j, m in enumerate(targets):
            for budget in SEARCH_BUDGETS:
                try:
                    w = is_contraction(n, m, budget)
                except BudgetExhausted as exc:
                    got = f"BudgetExhausted {exc}"
                else:
                    got = None if w is None else json.dumps(_witness_json(w))
                lines.append(f"{i} {j} {budget} {got}")
    assert _digest(lines) == SEARCH_STEPS_DIGEST


# Recorded before the prepared target, the prefilter and the one-pass
# tree_mcc hosts; the outputs must stay byte-identical.
TREE_MCC_DIGEST = "ebbb3ea020656c8b8c66c98233482450a8b5911e04a5672ff23f2a91ef2426e2"
EXACT_MCC_DIGEST = "38ac16a62a4b141a5b78761154a789b812a0ac96b2abe0b5684a8e3825ec2431"
CONTRACTION_DIGEST = "1fe00f73d69f86ebd020589ac99ed7530c2910f6d4803ec2ec014fafc0d9657f"
# Recorded before the search ran on an explicit stack.
SEARCH_STEPS_DIGEST = "1880297cf895b1529fb7733ae8208981355e05decea68f5f2676f038778a09ca"
