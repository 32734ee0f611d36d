"""Polynomial solver on weakly galled trees, checked against the brute oracle."""

import ast
import hashlib
import itertools
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import (
    cascade_pairs,
    caterpillar_edgelist,
    contracted_copy,
    gen_wgt,
    long_cycle,
    perturb,
    src_env,
)
from phylocontract import galled, mcc_dp
from phylocontract.cli import _witness_json, main
from phylocontract.edit_ops import validate_witness
from phylocontract.errors import Degree2Node, LeafSetMismatch, NotWeaklyGalled
from phylocontract.galled import is_weakly_galled
from phylocontract.generators import SplitMix64, diameter_pair, random_wgt
from phylocontract.io_enewick import parse_edgelist, parse_enewick, write_enewick
from phylocontract.mcc_dp import _Solver, solve, solve_with_stats
from phylocontract.mcc_oracle import exact_mcc, is_contraction, tree_mcc
from phylocontract.network_core import is_isomorphic


# -- frozen fixture values ----------------------------------------------------


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("t3a", "t3a", 0),
        ("t3a", "t3b", 2),
        ("star3", "t3a", 1),
        ("t3a", "star3", 1),
        ("g1", "g1", 0),
        ("g1", "star3", 3),
        ("star3", "g1", 3),
        ("g1", "t3a", 2),
        ("t3a", "g1", 2),
    ],
)
def test_fixture_deltas(a, b, want, request):
    n1 = request.getfixturevalue(a)
    n2 = request.getfixturevalue(b)
    assert solve(n1, n2)[0] == want


def test_solution_carries_valid_witnesses(g1, star3):
    delta, m, w1, w2 = solve(g1, star3)
    assert delta == 3
    ok1, why1 = validate_witness(g1, m, w1)
    ok2, why2 = validate_witness(star3, m, w2)
    assert ok1, why1
    assert ok2, why2
    i1 = len(g1.internal_nodes())
    i2 = len(star3.internal_nodes())
    assert delta == i1 + i2 - 2 * len(m.internal_nodes())


def test_identical_input_yields_isomorphic_common(g1):
    delta, m, _, _ = solve(g1, g1)
    assert delta == 0
    assert is_isomorphic(m, g1)


# -- error surface -------------------------------------------------------------


def test_leaf_set_mismatch(t3a):
    other = parse_enewick("((1,2),4);")
    with pytest.raises(LeafSetMismatch):
        solve(t3a, other)


def test_non_weakly_galled_input_rejected(t3a, fixture_dir):
    ladder = parse_enewick((fixture_dir / "ladder.nwk").read_text())
    assert not is_weakly_galled(ladder)
    other = parse_enewick("(1,2,(3,4));")
    with pytest.raises(NotWeaklyGalled):
        solve(ladder, other)
    with pytest.raises(NotWeaklyGalled):
        solve(other, ladder)


def test_degree2_input_rejected(t3a):
    unary = parse_enewick("(((1,2)),3);")
    with pytest.raises(Degree2Node):
        solve(unary, t3a)
    with pytest.raises(Degree2Node):
        solve(t3a, unary)


def test_each_network_is_checked_once_in_order(fixture_dir, monkeypatch):
    # Network 1 is refused before network 2 is looked at, and each network's
    # degree-2 test runs once, inside its clade index.
    ladder = parse_enewick((fixture_dir / "ladder.nwk").read_text())
    unary = parse_enewick("((((1,2)),3),4);")
    with pytest.raises(Degree2Node):
        solve(unary, ladder)
    with pytest.raises(NotWeaklyGalled):
        solve(ladder, unary)
    calls = []
    real = galled.has_degree2_node

    def counted(n):
        calls.append(n)
        return real(n)

    for module in (galled, mcc_dp):  # wherever the solver might look it up
        monkeypatch.setattr(module, "has_degree2_node", counted, raising=False)
    t = parse_enewick("((1,2),3);")
    solve(t, t)
    assert len(calls) == 2


# -- agreement with the exponential oracle -------------------------------------


def _seeded_pairs(count, seed):
    """Pairs of small weakly galled trees on a shared leaf set."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        leaves = rng.randint(3, 5)
        r1 = rng.randint(0, 2)
        r2 = rng.randint(0, 2)
        s1 = rng.randrange(1 << 30)
        s2 = rng.randrange(1 << 30)
        n1 = gen_wgt(leaves, r1, s1)
        n2 = gen_wgt(leaves, r2, s2)
        if len(n1.internal_nodes()) > 7 or len(n2.internal_nodes()) > 7:
            continue
        out.append((n1, n2))
    return out


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_matches_oracle_on_random_pairs(seed):
    for n1, n2 in _seeded_pairs(12, seed):
        got, m, w1, w2 = solve(n1, n2)
        want = exact_mcc(n1, n2)[0]
        assert got == want
        ok, why = validate_witness(n1, m, w1)
        assert ok, why
        ok, why = validate_witness(n2, m, w2)
        assert ok, why


def test_matches_oracle_on_perturbed_pairs():
    rng = SplitMix64(77)
    for _ in range(10):
        base = gen_wgt(rng.randint(3, 5), rng.randint(0, 1), rng.randrange(1 << 30))
        n2 = perturb(base, rng.randint(1, 2), rng.randrange(1 << 30))
        assert solve(base, n2)[0] == exact_mcc(base, n2)[0]


def test_delta_is_symmetric_and_identity_on_samples():
    rng = SplitMix64(404)
    for _ in range(8):
        leaves = rng.randint(3, 6)
        n1 = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        n2 = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        d12 = solve(n1, n2)[0]
        d21 = solve(n2, n1)[0]
        assert d12 == d21
        assert solve(n1, n1)[0] == 0
        # parity: delta differs from |I1| + |I2| by an even amount
        assert (d12 - len(n1.internal_nodes()) - len(n2.internal_nodes())) % 2 == 0


def test_delta_breaks_the_triangle_inequality(fixture_dir, capsys):
    # The paper sets delta apart from the operational distance, which is a
    # metric: here delta(a, c) = |I(a)| + |I(c)| - 2 exceeds
    # delta(a, b) + delta(b, c), as if a and c shared only their roots.
    paths = {x: str(fixture_dir / "triangle" / f"{x}.nwk") for x in "abc"}
    nets = {x: parse_enewick(Path(p).read_text()) for x, p in paths.items()}
    got = {}
    for x, y in ("ab", "bc", "ac"):
        got[x + y] = solve(nets[x], nets[y])[0]
        assert exact_mcc(nets[x], nets[y])[0] == got[x + y]
    assert got == {"ab": 2, "bc": 4, "ac": 8}
    assert got["ac"] > got["ab"] + got["bc"]
    assert nets["a"].num_internal + nets["c"].num_internal - 2 == 8
    assert main(["dist", "upper", paths["a"], paths["c"]]) == 0
    assert capsys.readouterr().out == "upper=8\ndelta=8\n"


def test_common_network_is_contraction_of_both():
    rng = SplitMix64(505)
    for _ in range(6):
        leaves = rng.randint(3, 5)
        n1 = gen_wgt(leaves, rng.randint(0, 1), rng.randrange(1 << 30))
        n2 = gen_wgt(leaves, rng.randint(0, 1), rng.randrange(1 << 30))
        _, m, _, _ = solve(n1, n2)
        assert is_contraction(n1, m) is not None
        assert is_contraction(n2, m) is not None


# -- agreement at scale -----------------------------------------------------------


@pytest.mark.parametrize("leaves", [300, 600, 1200])
def test_matches_tree_mcc_on_independent_trees(leaves):
    # Two trees share little, so the root's rule cascade contracts most of
    # both: tree_mcc, which keeps the common clades, is the reference.
    n1, n2 = random_wgt(leaves, 0, 1), random_wgt(leaves, 0, 2)
    delta, m, _, _ = solve(n1, n2)
    want, m_tree, _, _ = tree_mcc(n1, n2)
    assert delta == want and is_isomorphic(m, m_tree)


def test_independent_pair_with_cycles_is_symmetric_and_fast():
    # delta 1735 as the one-firing-per-entry engine gave it, which took
    # about 3 s per solve on a 2-core x86_64 container; the cascade takes
    # about 0.1 s. The 2 s bound per solve is a gate on the cascade's cost.
    n1, n2 = random_wgt(1300, 20, 0), random_wgt(1300, 20, 1)
    for a, b in ((n1, n2), (n2, n1)):
        start = time.perf_counter()
        delta = solve(a, b)[0]
        assert delta == 1735 and time.perf_counter() - start < 2.0


# -- table instrumentation ------------------------------------------------------


def test_stats_reports_table_sizes(g1, star3):
    (delta, _, _, _), stats = solve_with_stats(g1, star3)
    assert delta == 3
    assert stats.fc_entries >= 1
    assert stats.fp_entries >= 0
    assert stats.fl_entries >= 0


def test_stats_identical_pair_exercises_leaf_table():
    n = gen_wgt(10, 2, 13)
    (delta, _, _, _), stats = solve_with_stats(n, n)
    assert delta == 0
    assert stats.fl_entries > 0
    assert stats.fp_entries > 0


# -- frozen mid-size pairs ------------------------------------------------------

# (leaves, reticulations, seed, k) -> (delta, fc, fp, fl entries, emit digest,
# witness digest). k > 0 pairs a network with a k-contraction copy of itself,
# k == 0 with an independent network. Digests are SHA-256 prefixes of the
# bytes `mcc wgt --emit/--witness` writes. The pairs are beyond the oracle's
# reach, so these values are their only reference: deltas and digests were
# recorded from the solver that built a clade set per prime, entry counts
# from the one that answers shared subtrees at once, skips alternatives
# whose internal-count bound already loses, runs each rule cascade in one
# fC entry and bounds a contracted cycle top by the split it forces.
FROZEN = [
    ((20, 2, 11, 3), (3, 10, 19, 10, "cfd8e7a363572cc3", "31695a9d16a18d39")),
    ((24, 3, 21, 0), (41, 2, 25, 0, "754a24c226ea592b", "2f77d21535c4d890")),
    ((34, 3, 12, 10), (10, 16, 34, 14, "164754dbbd67c4b8", "39df91d26de7dcf8")),
    ((48, 4, 13, 5), (5, 22, 38, 21, "2c35d99253889607", "3bd38115f3f7b1af")),
    ((60, 5, 14, 0), (95, 1, 60, 0, "76d98ab49c119232", "176bf46005c9bb34")),
    ((72, 2, 15, 4), (4, 18, 34, 24, "5f110b45be4be341", "8edf87226636e02f")),
    ((85, 3, 16, 12), (12, 22, 59, 15, "3c98d40575a655fa", "0d4cab98276b3b08")),
    ((96, 4, 17, 6), (6, 23, 54, 18, "2ca1857e6e832797", "185e18f9d8b0b322")),
    ((108, 5, 18, 0), (154, 1, 108, 0, "6d1e4e0f410fd144", "90db0c592e5a8055")),
    ((120, 3, 19, 2), (2, 23, 39, 30, "533ce2d903699fc2", "bdd15fd623f60f9f")),
    ((30, 5, 20, 0), (56, 1, 30, 0, "fd20c8da0a26d4c8", "a378b194eaf59c57")),
]


def _frozen_pair(leaves, retics, seed, k):
    n1 = gen_wgt(leaves, retics, seed)
    if k:
        return n1, perturb(n1, k, seed + 1000)
    return n1, gen_wgt(leaves, retics, seed + 500)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "spec,want", FROZEN, ids=[f"L{a}-r{b}-s{c}-k{d}" for (a, b, c, d), _ in FROZEN]
)
def test_frozen_mid_size_pairs(spec, want):
    n1, n2 = _frozen_pair(*spec)
    (delta, m, w1, w2), stats = solve_with_stats(n1, n2)
    witness = json.dumps([_witness_json(w1), _witness_json(w2)], indent=2) + "\n"
    got = (
        delta,
        stats.fc_entries,
        stats.fp_entries,
        stats.fl_entries,
        _digest(write_enewick(m)),
        _digest(witness),
    )
    assert got == want


# -- output digest ----------------------------------------------------------------


def _digest_pairs():
    """Seeded pairs of every shape the DP distinguishes: k-contracted copies
    of networks with cycles, independent networks, diameter pairs and deep
    caterpillars against contracted copies."""
    rng = SplitMix64(1109)
    for _ in range(60):
        n = gen_wgt(rng.randint(6, 150), rng.randint(1, 7), rng.randrange(1 << 30))
        yield n, perturb(n, rng.randint(1, 6), rng.randrange(1 << 30))
    for _ in range(20):
        leaves, retics = rng.randint(10, 40), rng.randint(0, 4)
        yield (
            gen_wgt(leaves, retics, rng.randrange(1 << 30)),
            gen_wgt(leaves, retics, rng.randrange(1 << 30)),
        )
    for leaves in (4, 5, 7):
        for m in range(2, 8):
            for mp in range(2, 8):
                if (leaves, m, mp) != (4, 6, 6):  # the one ladder pair
                    yield diameter_pair(leaves, m, mp)
    for leaves in (30, 60, 120):
        n = parse_edgelist(caterpillar_edgelist(leaves))
        yield n, perturb(n, leaves // 10, leaves)


def test_output_digest_is_frozen():
    # One SHA-256 over delta, the emitted common contraction and the witness
    # JSON of every pair above, recorded before the DP's evaluation order was
    # pruned: pruning may shrink the memo tables but must not change a byte.
    h = hashlib.sha256()
    for n1, n2 in _digest_pairs():
        delta, m, w1, w2 = solve(n1, n2)
        witness = json.dumps([_witness_json(w1), _witness_json(w2)], indent=2)
        h.update(f"{delta}\n{write_enewick(m)}{witness}\n".encode())
    assert h.hexdigest() == "b70fd1c1e5fa33bda7f9c6338f78efaace924923ba06ab55733772d5b23038a7"


def test_every_solved_choice_is_a_traceback_record():
    # The digests read only the records the traceback reaches, the winners.
    # Every solved entry's record must be followable too: its sub-entries are
    # entries of their tables or shared subtree pairs, and its nodes are
    # internal nodes of their side's network.
    tags = set()
    for n1, n2 in _digest_pairs():
        solver = _Solver(n1, n2)
        solver.run()
        nd1, nd2 = solver.nd
        internal = (set(n1.internal_nodes()), set(n2.internal_nodes()))
        for table, memo in solver.memos.items():
            for key, (value, choice) in memo.items():
                if value == mcc_dp.INF:
                    continue
                tags.add(choice[0])
                nodes1, nodes2, _, subs = solver._decode(table, key)
                assert set(nodes1) <= internal[0] and set(nodes2) <= internal[1], choice
                for sub_table, sub_key in subs:
                    if sub_table == "S":
                        u, v = sub_key
                        assert nd1.tree_id[u] == nd2.tree_id[v], choice
                    else:
                        assert sub_key in solver.memos[sub_table], choice
    assert {"c2keep", "c2contract", "collapse1", "collapse2"} <= tags, tags


def test_every_fc_key_pairs_one_leaf_set():
    # fC never compares leaf sets: every producer of an fC key keeps the two
    # compositions on one leaf set, and such a pair always has a common
    # contraction, so every solved fC entry is finite.
    checked = 0
    for n1, n2 in _digest_pairs():
        solver = _Solver(n1, n2)
        solver.run()
        nd1, nd2 = solver.nd
        for (k1, k2), (value, _) in solver.fc_memo.items():
            union1 = union2 = 0
            for p in k1:
                union1 |= nd1.prime_leafset(p)
            for p in k2:
                union2 |= nd2.prime_leafset(p)
            assert union1 == union2, (k1, k2)
            assert value != mcc_dp.INF, (k1, k2)
            checked += 1
    assert checked > 1000


# -- lower bounds and shared subtrees -------------------------------------------


def _internals(n, heads) -> int:
    """Internal nodes reachable from heads."""
    seen, stack = set(heads), list(heads)
    while stack:
        for c in n.succ[stack.pop()]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return sum(1 for u in seen if n.succ[u])


def _comp_internals(nd, comp) -> int:
    heads = []
    for p in comp:
        if p[0] == "D":
            heads.append(p[1])
        else:
            _, ci, u, v = p
            heads += [nd.next_a(ci, u), nd.next_b(ci, v)]
    return _internals(nd.n, heads)


def _run_internals(nd, run) -> int:
    """A lateral run's side nodes and everything hanging off them."""
    if run is None:
        return 0
    ci, side, lo, hi = run
    c = nd.cycles[ci]
    path = [*(c.side_a if side == 0 else c.side_b), c.reticulation]
    nodes = path[lo : hi + 1]
    hangs = [
        ch
        for z, on_cycle in zip(nodes, path[lo + 1 : hi + 2])
        for ch in nd.n.succ[z]
        if ch != on_cycle
    ]
    return len(nodes) + _internals(nd.n, hangs)


def test_solved_values_cover_the_internal_count_imbalance():
    # The DP's lower bounds rest on this: a common contraction of two
    # materializations with I1 and I2 internal nodes costs at least
    # |I1 - I2|. Counted here by walking each entry's materializations.
    checked = 0
    for n1, n2 in itertools.chain(_digest_pairs(), _long_pairs()):
        solver = _Solver(n1, n2)
        solver.run()
        nd1, nd2 = solver.nd
        counts = {
            "C": lambda nd, comp: _comp_internals(nd, comp),
            "P": lambda nd, prime: _comp_internals(nd, (prime,)),
            "L": _run_internals,
        }
        # an fC entry stands for every pair its rule cascade passes through,
        # each worth the entry's value less the firings before it
        seen = set()
        for table, count in counts.items():
            for key, (value, _) in solver.memos[table].items():
                steps = cascade_pairs(solver, *key) if table == "C" else [(key, 0)]
                for (a, b), step in steps:
                    if (table, a, b) in seen:
                        continue
                    seen.add((table, a, b))
                    assert value - step >= abs(count(nd1, a) - count(nd2, b)), (table, a, b)
                    checked += 1
        # the solver's own counts, which its bounds use, agree with the walks
        for s, nd in enumerate(solver.nd):
            for key in solver.fp_memo:
                assert nd.prime_internal(key[s]) == _comp_internals(nd, (key[s],))
            for key in solver.fl_memo:
                assert mcc_dp._run_internal(nd, key[s]) == _run_internals(nd, key[s])
    assert checked > 10000


def test_shared_subtrees_are_answered_at_once():
    # A random 3000-leaf tree against a re-parsed copy of itself: each child
    # of the root is a shared subtree, so fP opens nothing below them. The
    # witness is the one the full pairnode recursion gives without ids.
    n1 = gen_wgt(3000, 0, 41)
    n2 = parse_enewick(write_enewick(n1))
    solver = _Solver(n1, n2)
    delta, m, w1, w2 = solver.run()
    assert delta == 0
    assert len(solver.fp_memo) <= len(n1.succ[n1.root])
    full = _Solver(n1, n2)
    for nd in full.nd:
        nd.tree_id.clear()
    delta_full, m_full, *witness_full = full.run()
    assert len(full.fp_memo) > n1.num_internal
    assert (delta_full, write_enewick(m_full), witness_full) == (0, write_enewick(m), [w1, w2])


# -- long-sided cycles ---------------------------------------------------------


def _long_pair(s: int, k: int, flip: bool = False):
    """long_cycle(s) against its k-contracted copy, swapped if flip."""
    n = long_cycle(s)
    pair = (n, contracted_copy(n, k))
    return pair[::-1] if flip else pair


def _long_pairs():
    """The long-cycle pairs whose output is pinned below: sides of 8, 16 and
    30 nodes against their 1- and 3-contracted copies, in both orders."""
    for s in (8, 16, 30):
        for k in (1, 3):
            for flip in (False, True):
                yield _long_pair(s, k, flip)


def _traced_tags(solver) -> set[str]:
    """Tags of the records the traceback of a run solver follows."""
    nd1, nd2 = solver.nd
    stack = [("C", (nd1.decompose(nd1.n.root), nd2.decompose(nd2.n.root)))]
    tags = set()
    while stack:
        table, key = stack.pop()
        if table != "S":
            choice = solver.memos[table][key][1]
            tags.add(choice[0])
            stack.extend(choice[4])
    return tags


# s <= 4 keeps both networks within exact_mcc's 10 internal nodes; a side of
# s nodes has s - 1 edges to contract.
@pytest.mark.parametrize(
    "s,k", [(s, k) for s in (1, 2, 3, 4) for k in range(4) if k <= 2 * (s - 1)]
)
def test_long_cycle_matches_oracle(s, k):
    for flip in (False, True):
        n1, n2 = _long_pair(s, k, flip)
        delta, m, w1, w2 = solve(n1, n2)
        assert delta == exact_mcc(n1, n2)[0] == k
        for n, w in ((n1, w1), (n2, w2)):
            ok, why = validate_witness(n, m, w)
            assert ok, why


@pytest.mark.parametrize(
    "text1,text2,tag",
    [
        ("(((((1,(3)#H2),#H2))#H1,2),#H1);", "(((1,2),(3)#H1),#H1);", "c4contract"),
        ("(((1)#H1,(#H1,2)),3,4,5);", "((1)#H1,(#H1,2),3,4,5);", "c2contract"),
    ],
)
def test_bounded_contractions_still_win(text1, text2, tag):
    # The forced-split bound prunes contracted cycle tops and contracted
    # dangling edges; where one is the optimum, the traceback still takes
    # it and the oracle agrees.
    n1, n2 = parse_enewick(text1), parse_enewick(text2)
    solver = _Solver(n1, n2)
    delta, m, w1, w2 = solver.run()
    assert delta == exact_mcc(n1, n2)[0]
    assert tag in _traced_tags(solver)


def test_long_cycle_output_digest_is_frozen():
    # One SHA-256 over delta, the emitted common contraction and the witness
    # JSON of each long-cycle pair, recorded from the solver that scanned
    # every bottom pair of every pair of cycle tops.
    h = hashlib.sha256()
    for n1, n2 in _long_pairs():
        delta, m, w1, w2 = solve(n1, n2)
        witness = json.dumps([_witness_json(w1), _witness_json(w2)], indent=2)
        h.update(f"{delta}\n{write_enewick(m)}{witness}\n".encode())
    assert h.hexdigest() == "841a33704de491b85c9f63539cdd4edeaa046fa6dba6f30907b7f3743661614b"


@pytest.mark.parametrize("s", [100, 300])
def test_long_cycle_delta_is_the_contraction_count(s):
    for k in (1, 3):
        for flip in (False, True):
            assert solve(*_long_pair(s, k, flip))[0] == k


@pytest.mark.parametrize("s", [25, 50, 100])
def test_long_cycle_tables_stay_linear(s, monkeypatch):
    # Against the 3-contracted copy and against itself, the memo tables, the
    # bottom-pair alternatives and the lateral splits built stay within
    # 10 s. The solver that scanned every bottom pair made 4868 entries at
    # s = 40 against the copy; scanning every split point builds s^2 - s
    # splits against itself.
    built = {"bottoms": 0, "splits": 0}
    bottom_pairs, split = _Solver._bottom_pairs, mcc_dp._split

    def counted_bottoms(self, *args):
        for floor, group in bottom_pairs(self, *args):
            built["bottoms"] += len(group)
            yield floor, group

    def counted_split(*args):
        built["splits"] += 1
        return split(*args)

    monkeypatch.setattr(_Solver, "_bottom_pairs", counted_bottoms)
    monkeypatch.setattr(mcc_dp, "_split", counted_split)
    for k in (0, 3):
        for flip in (False, True):
            built.update(bottoms=0, splits=0)
            solver = _Solver(*_long_pair(s, k, flip))
            assert solver.run()[0] == k
            entries = len(solver.fc_memo) + len(solver.fp_memo) + len(solver.fl_memo)
            assert max(entries, *built.values()) <= 10 * s, (k, flip, entries, built)


def test_forced_split_bounds_hold():
    # The bound on a contracted cycle top, and on a contracted dangling edge
    # whose head splits into two or more primes, is 2 + |I1 - I2|: evaluated
    # by a fresh solver, which prunes nothing it is asked for, the
    # alternative is never cheaper.
    tops = mixed = 0
    for n1, n2 in itertools.chain(_digest_pairs(), _long_pairs()):
        solver = _Solver(n1, n2)
        solver.run()
        fresh = _Solver(n1, n2)
        for (p1, p2), (value, _) in solver.fp_memo.items():
            if value == mcc_dp.INF or (p1[0], p2[0]) == ("D", "D"):
                continue
            i1, i2 = solver.nd[0].prime_internal(p1), solver.nd[1].prime_internal(p2)
            keys = []
            if p1[0] == p2[0] == "C":
                for s, prime, other in ((0, p1, p2), (1, p2, p1)):
                    nd = solver.nd[s]
                    _, ck, a, b = prime
                    for z in (nd.next_a(ck, a), nd.next_b(ck, b)):
                        if z != nd.retic(ck):
                            comp = solver.advance(s, (prime,), prime, z)
                            keys.append((comp, (other,)) if s == 0 else ((other,), comp))
                tops += len(keys)
            else:
                dside = 0 if p1[0] == "D" else 1
                dp, cp = (p1, p2) if dside == 0 else (p2, p1)
                nd = solver.nd[dside]
                if dp[1] in nd.n.leaf_label or len(nd.decompose(dp[1])) < 2:
                    continue
                dec = nd.decompose(dp[1])
                keys.append((dec, (cp,)) if dside == 0 else ((cp,), dec))
                mixed += 1
            for key in keys:
                assert 1 + fresh._evaluate("C", key) >= 2 + abs(i1 - i2), (p1, p2, key)
    assert tops >= 700 and mixed >= 5, (tops, mixed)


# -- rule queries against materialized clade sets -------------------------------


def _materialized_values(nd, comp) -> set[int]:
    """One- and two-clade values of every prime in comp, built from scratch:
    walk the prime's nodes, drop side-internal nodes of its own cycle's
    window and of any other cycle whose root it holds, add its own cycle's
    pairs inside the window and every pair of another cycle whose root it
    holds."""
    n = nd.n
    d = n.clades()
    out = set()
    for p in comp:
        if p[0] == "D":
            heads = [p[1]]
        else:
            _, ci, u, v = p
            heads = [nd.next_a(ci, u), nd.next_b(ci, v)]
        nodes, stack = set(heads), list(heads)
        while stack:
            for c in n.succ[stack.pop()]:
                if c not in nodes:
                    nodes.add(c)
                    stack.append(c)
        own = p[1] if p[0] == "C" else None
        window = set(nd.window(own, p[2], p[3])) if p[0] == "C" else set()
        for z in nodes:
            for cj, c in enumerate(nd.cycles):
                if z in c.side_a or z in c.side_b:
                    if z in window if cj == own else c.root in nodes:
                        break
            else:
                out.add(d[z])
        for cj, c in enumerate(nd.cycles):
            t = c.reticulation
            if cj == own:
                xs = [t, *(x for x in c.side_a if x in window)]
                ys = [t, *(y for y in c.side_b if y in window)]
            elif c.root in nodes:
                xs, ys = [t, *c.side_a], [t, *c.side_b]
            else:
                continue
            out |= {d[x] | d[y] for x in xs for y in ys if (x, y) != (t, t)}
    return out


# Rule queries asked over the pairs that the rule cascades of the solved fC
# entries pass through (the fC entries themselves, before each cascade ran
# in one entry), for each group of pairs: at least as many as its first
# pair alone gave when the floors were set (4109 in all). Fewer means the
# DP now evaluates fewer entries and this test covers less. Once the DP
# answered shared subtrees at once and pruned by internal counts, the first
# pairs of groups 0, 1 and 3 fell to 660, 386 and 1175 queries; the
# independent pairs added after them restore 1385, 807 and 2086. Replaying
# each cascade asks exactly the queries the one-firing entries asked. Once a
# contracted cycle top was bounded by the split it forces, groups 0, 1 and 3
# fell to 817, 475 and 984; the long-cycle pairs ("long", s, k, flip) added
# after them restore them past their floors.
ASKED_FLOOR = {
    (
        (34, 3, 12, 10),
        (40, 3, 31, 0),
        *(("long", 30, k, flip) for k in (1, 3) for flip in (False, True)),
    ): 1243,
    ((48, 4, 13, 5), (36, 2, 33, 0), ("long", 16, 1, False), ("long", 16, 1, True)): 596,
    ((30, 5, 20, 0),): 401,
    (
        (72, 2, 15, 4),
        (50, 4, 32, 0),
        *(("long", 60, k, flip) for k in (1, 3) for flip in (False, True)),
    ): 1869,
}


@pytest.mark.parametrize("spec", list(ASKED_FLOOR))
def test_has_value_matches_materialized_clades(spec):
    asked = 0
    for pair in spec:
        n1, n2 = _long_pair(*pair[1:]) if pair[0] == "long" else _frozen_pair(*pair)
        solver = _Solver(n1, n2)
        solver.run()
        cascades = (cascade_pairs(solver, *key) for key in list(solver.fc_memo))
        for comps in dict.fromkeys(c for steps in cascades for c, _ in steps):
            for s in (0, 1):
                other = solver.nd[1 - s]
                known = _materialized_values(other, comps[1 - s])
                index = other.comp_index(comps[1 - s])
                # has_value's premises: at most one top per cycle, and no
                # top's cycle root inside the composition
                tops = [p[1] for p in comps[1 - s] if p[0] == "C"]
                roots = (other.node_bit[other.cycles[cj].root] for cj in tops)
                assert len(set(tops)) == len(tops), (pair, comps, s)
                assert not any(index[0] >> i & 1 for i in roots), (pair, comps, s)
                queries = {
                    q for p in comps[s] for *_, qs in solver.prime_candidates(s, p) for q in qs
                }
                for q in queries | set(other.one_clades) | set(other.two_wit):
                    assert other.has_value(index, q) == (q in known), (pair, comps, s, q)
                asked += len(queries)
    assert asked >= ASKED_FLOOR[spec]


# -- self-checks ----------------------------------------------------------------


SELF_CHECK_SCRIPT = """
import sys
import phylocontract.edit_ops as edit_ops
import phylocontract.mcc_dp as mcc_dp
import phylocontract.mcc_oracle as mcc_oracle
from phylocontract import exact_mcc, parse_enewick, solve, tree_mcc
from phylocontract.errors import SelfCheckFailed

print(f"optimize={sys.flags.optimize}")
# a traceback that misaligns side 2: parts 1 and 2 swap their side-2 nodes
trace = mcc_dp._Solver._trace
def swapped(self, k1, k2):
    parts = trace(self, k1, k2)
    (a1, a2), (b1, b2) = parts[1], parts[2]
    parts[1], parts[2] = (a1, b2), (b1, a2)
    return parts
mcc_dp._Solver._trace = swapped
# two sibling cherries, then a parent part and its child part
for text in ("((1,2),(3,4));", "((1,(2,3)),4);"):
    n = parse_enewick(text)
    try:
        print("returned", solve(n, n))
    except SelfCheckFailed as exc:
        print("solve", exc)
mcc_dp._Solver._trace = trace
edit_ops.validate_witness = lambda n, m, w: (False, "planted")
a, b = parse_enewick("((1,2),3);"), parse_enewick("((1,3),2);")
for f in (solve, exact_mcc, tree_mcc):
    try:
        f(a, b)
    except SelfCheckFailed as exc:
        print(f.__name__, exc)
# a search that refuses every quotient leaves exact_mcc without a result
mcc_oracle._search = lambda target, m, budget=None: None
try:
    print("returned", exact_mcc(a, b))
except SelfCheckFailed as exc:
    print("exact_mcc", exc)
# a solved entry without a choice leaves the DP's traceback stuck
def choiceless(self, p1, p2):
    return 0, None
    yield
mcc_dp._Solver.fP = choiceless
try:
    print("returned", solve(a, b))
except SelfCheckFailed as exc:
    print("solve", exc)
"""


def _run_optimized(script: str) -> list[str]:
    """Run `script` under python -O and return its stdout lines."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_witness_self_checks_survive_python_O():
    # python -O drops asserts; the side-2 witness check must still catch a
    # traceback whose second side breaks leaf attachment or the internal
    # edges, the checks that end solve, exact_mcc and tree_mcc must still
    # catch a witness that fails validation, exact_mcc must still notice
    # that no partition survived, and the DP's traceback must refuse an
    # entry that has no choice to follow.
    assert _run_optimized(SELF_CHECK_SCRIPT) == [
        "optimize=1",
        "solve witness check failed: leaf '1': parent 2 not in part 1",
        "solve witness check failed: edge pattern mismatch"
        " (missing={(0, 1), (1, 2)}, extra={(0, 2), (2, 1)})",
        *(f"{name} witness check failed: planted" for name in ("solve", "exact_mcc", "tree_mcc")),
        "exact_mcc no partition of the first network contracts the second",
        "solve traceback reached an unsolved P entry",
    ]


RANDOM_WGT_CHECK_SCRIPT = """
import sys
import phylocontract.generators as generators
from phylocontract.errors import SelfCheckFailed

print(f"optimize={sys.flags.optimize}")
local = generators._new_cycle
# accept every candidate pair: a rejected one gets a made-up cycle of new edges
generators._new_cycle = lambda up, a, b, c, s1, s2: (
    local(up, a, b, c, s1, s2) or [(a, s1), (s1, s2), (c, s2)]
)
for leaves, retics, seed in ((12, 4, 0), (40, 6, 1)):
    try:
        net = generators.random_wgt(leaves, retics, seed)
    except SelfCheckFailed as exc:
        print(type(exc).__name__, str(exc).split(" built ")[0])
    else:
        print("returned", net)
"""


def test_random_wgt_self_checks_survive_python_O():
    # With the local acceptance test, the closing checks of random_wgt are
    # the only whole-network guard; they must not be asserts.
    assert _run_optimized(RANDOM_WGT_CHECK_SCRIPT) == [
        "optimize=1",
        "SelfCheckFailed random_wgt(12, 4, 0)",
        "SelfCheckFailed random_wgt(40, 6, 1)",
    ]


GENERATOR_CHECK_SCRIPT = """
import sys
import phylocontract.generators as generators
from phylocontract import parse_enewick
from phylocontract.errors import SelfCheckFailed

print(f"optimize={sys.flags.optimize}")
inst = generators.parse_set_splitting("a b\\na b\\n")
plants = [
    ("is_weakly_galled", lambda n: False, generators.diameter_pair, (4, 2, 5)),
    ("is_weakly_galled", lambda n: False, generators.diameter_pair, (7, 8, 2)),
    ("validate", lambda edges, labels: parse_enewick("(1,2,3,4);"), generators.diameter_pair, (4, 2, 2)),
    ("five_leaves_target", lambda: parse_enewick("(l1,l2);"), generators.reduction_five_leaves, (inst,)),
]
for name, planted, f, args in plants:
    real = getattr(generators, name)
    setattr(generators, name, planted)
    try:
        print("returned", f(*args))
    except SelfCheckFailed as exc:
        print(name, exc)
    setattr(generators, name, real)
"""


def test_generator_self_checks_survive_python_O():
    # The checks that guard generator output: both chain builders'
    # weak-galledness (root-leaf chain, then path chain), _finish's
    # internal-node count and the reductions' shared leaf set.
    built = "chain construction built <Network nodes={} internal={} leaves={} retics=1>"
    assert _run_optimized(GENERATOR_CHECK_SCRIPT) == [
        "optimize=1",
        f"is_weakly_galled {built.format(9, 5, 4)}, not a weakly galled tree",
        f"is_weakly_galled {built.format(15, 8, 7)}, not a weakly galled tree",
        "validate built 1 internal nodes, expected 2",
        "five_leaves_target reduction pair on ('l1', 'l2', 'l3', 'l4', 'l4p') vs ('l1', 'l2')",
    ]


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check that guards output
    # must raise instead; none may come back as an assert.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(mcc_dp.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_recursive_functions():
    # Deep inputs must not meet Python's recursion limit, so no function
    # calls itself, by its bare name or as a method on self.
    found = []
    for path in sorted(Path(mcc_dp.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (isinstance(func, ast.Name) and func.id == fn.name) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == fn.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert found == []


def _callers(name: str) -> list[str]:
    """`module.function` of the innermost function around each call of
    `name` in the package, sorted. Calls are matched by name, through
    `import ... as` aliases, and as an attribute."""
    callers = []
    for path in sorted(Path(mcc_dp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {name} | {
            alias.asname
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name == name and alias.asname
        }
        defs = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id in names) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                innermost = max(around, key=lambda d: d.lineno).name if around else "<module>"
                callers.append(f"{path.stem}.{innermost}")
    return sorted(callers)


def test_networks_are_built_only_by_validate_and_contract():
    # The constructor checks nothing: every network the package builds goes
    # through `validate`, except the raw contraction, whose result may be
    # invalid by definition.
    callers = _callers("Network")
    assert sorted(callers) == ["edit_ops.contract", "network_core.validate"]


def test_results_are_certified_only_by_common_contraction():
    # Every solver returns through one exit, which alone checks the
    # witnesses and computes delta; a second caller would be a second
    # certificate to keep in step.
    for name in ("check_witness", "delta_mcc_from_common"):
        assert set(_callers(name)) == {"edit_ops.common_contraction"}, name


def test_every_error_class_is_constructed():
    # An error class that no other module constructs is a dead error code.
    # Calls are matched through `from .errors import X as Y` aliases.
    package = Path(mcc_dp.__file__).parent
    errors = ast.parse((package / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    constructed = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "errors"
            for alias in node.names
        }
        constructed.update(
            names[node.func.id]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in names
        )
    assert sorted(defined - constructed - {"PhyloError"}) == []


EDIT_OPS_CHECK_SCRIPT = """
import sys
from phylocontract import parse_enewick
from phylocontract.edit_ops import Contraction, contract, quotient
from phylocontract.errors import CyclicGraph, InvalidParameters
from phylocontract.network_core import Network, topological_order

print(f"optimize={sys.flags.optimize}")
g1 = parse_enewick("(((1)#H1,2),(#H1,3));")
leaf = min(g1.leaf_label)
# the constructor is unchecked: 1 -> 2 -> 1 is a directed cycle
cyclic = Network({0: [1], 1: [2], 2: [1, 3], 3: []}, {3: "a"}, 0)
calls = (
    lambda: contract(g1, Contraction(g1.root, g1.succ[g1.root][0], leaf)),
    lambda: quotient(g1, [[g1.root]]),
    lambda: quotient(g1, [g1.internal_nodes(), [leaf]]),
    lambda: topological_order(cyclic),
)
for call in calls:
    try:
        print("returned", call())
    except (CyclicGraph, InvalidParameters) as exc:
        print(type(exc).__name__, exc)
"""


def test_edit_ops_argument_checks_survive_python_O():
    # Merging onto a used node id, or a partition that misses or exceeds the
    # internal nodes, must be refused, not turned into a corrupt network;
    # a cyclic network has no topological order to return.
    assert _run_optimized(EDIT_OPS_CHECK_SCRIPT) == [
        "optimize=1",
        "InvalidParameters merge node 0 must be fresh",
        "InvalidParameters parts must cover exactly the internal nodes",
        "InvalidParameters parts must cover exactly the internal nodes",
        "CyclicGraph directed cycle detected",
    ]


CLADE_INDEX_CHECK_SCRIPT = """
import sys
import phylocontract.galled as galled
from phylocontract import parse_enewick, solve
from phylocontract.errors import SelfCheckFailed

print(f"optimize={sys.flags.optimize}")
pairs = galled.ReticulationCycle.pairs
# a second pair carrying the cycle's whole clade: its root with its reticulation
galled.ReticulationCycle.pairs = lambda c: [*pairs(c), (c.root, c.reticulation)]
g1 = parse_enewick("(((1)#H1,2),(#H1,3));")
for f in (galled.build_clade_index, lambda n: solve(n, n)):
    try:
        print("returned", f(g1))
    except SelfCheckFailed as exc:
        print(type(exc).__name__, exc)
"""


def test_clade_index_unicity_checks_survive_python_O():
    # The DP keeps one pair per 2-clade value, taken from the clade index;
    # a value on two pairs must be refused, not silently dropped.
    violation = "SelfCheckFailed 2-clade ('1', '2', '3') on pairs ((1, 6), (3, 5))"
    assert _run_optimized(CLADE_INDEX_CHECK_SCRIPT) == ["optimize=1", violation, violation]


# -- explicit evaluation stack ----------------------------------------------------


def test_solve_leaves_the_recursion_limit_alone(monkeypatch):
    # 3000 levels is three times Python's default recursion limit; the DP
    # and its traceback must neither recurse per level nor raise the limit.
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = parse_edgelist(caterpillar_edgelist(3000))
    delta, m, w1, w2 = solve(n, n)
    assert (delta, m.num_internal) == (0, 2999)
    assert w1 == w2


def test_cli_solves_20000_leaf_caterpillar(tmp_path):
    # Deep enough that a recursive evaluation overflows the C stack even
    # with a raised recursion limit.
    path = tmp_path / "c.edges"
    path.write_text(caterpillar_edgelist(20000), encoding="utf-8")
    argv = [sys.executable, "-m", "phylocontract", "--format", "edgelist"]
    proc = subprocess.run(
        [*argv, "mcc", "wgt", str(path), str(path)],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        "delta=0 common_size=19999\n",
        "",
    )


# -- memory ---------------------------------------------------------------------


def _caterpillar_text(order: list[str]) -> str:
    """eNewick caterpillar on order, its first two leaves deepest."""
    tail = "".join(f",{x})" for x in order[2:])
    return "(" * (len(order) - 1) + f"{order[0]},{order[1]}){tail};"


def test_deep_pair_peak_memory():
    # 4,000 leaves against the copy whose second half of leaves is
    # reversed. reach is the solver's only node-indexed mask table; with an
    # ancestor mask per node and a node mask per 1-clade beside it, this
    # solve peaked at 44 MiB.
    names = [f"x{i}" for i in range(4000)]
    n1 = parse_enewick(_caterpillar_text(names))
    n2 = parse_enewick(_caterpillar_text(names[:2000] + names[:1999:-1]))
    tracemalloc.start()
    try:
        delta = _Solver(n1, n2).run()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert delta == 3998
    assert peak < 36 * 2**20, peak / 2**20
