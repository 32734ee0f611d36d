"""Recognition, cycle extraction, clade indexing, safe contraction rules."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocontract import (
    build_clade_index,
    cycles,
    has_degree2_node,
    is_isomorphic,
    is_weakly_galled,
    parse_enewick,
    write_edgelist,
)
from phylocontract.edit_ops import Contraction, contract
from phylocontract.errors import (
    Degree2Node,
    GenerationFailed,
    InvalidParameters,
    LeafSetMismatch,
    NotWeaklyGalled,
)
from phylocontract.generators import (
    SplitMix64,
    diameter_pair,
    random_wgt,
    reduction_deg_bounded,
    reduction_five_leaves,
)
from phylocontract.mcc_dp import _Solver, apply_rules
from phylocontract.network_core import is_acyclic, validate
from tests.conftest import G1_TEXT, STAR3_TEXT, T3A_TEXT, T3B_TEXT, gen_wgt, perturb
from tests.test_acceptance import _all_small_instances


def bits_of(n, labels):
    uni = n.leaf_universe
    return sum(1 << uni.index(lab) for lab in labels)


def leafparent(n, lab):
    return n.pred[n.leaf_by_label()[lab]][0]


def test_trees_and_g1_are_weakly_galled(t3a, g1):
    assert is_weakly_galled(t3a)
    assert is_weakly_galled(g1)


def test_nested_cycles_are_weakly_galled():
    n = parse_enewick("((((((5)#H2,6),(#H2,7)))#H1,2),(#H1,3));")
    assert is_weakly_galled(n)
    assert len(cycles(n)) == 2


def test_cycles_sharing_an_edge_are_rejected():
    n = parse_enewick("((((1)#H1,2),(#H1,(3)#H2)),(#H2,4));")
    assert not is_weakly_galled(n)
    with pytest.raises(NotWeaklyGalled):
        cycles(n)


def test_ladder_of_stacked_rungs_is_rejected():
    n = parse_enewick("(1,2,(((3,(4)#H1),(#H1)#H2),#H2));")
    assert not is_weakly_galled(n)


def test_indegree_three_is_rejected():
    from phylocontract import validate

    n = validate(
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5), (1, 6), (2, 7), (3, 8)],
        {5: "a", 6: "b", 7: "c", 8: "d"},
    )
    assert not is_weakly_galled(n)


def test_degree2_detection(g1):
    assert not has_degree2_node(g1)
    assert has_degree2_node(parse_enewick("((1));"))
    # an out-degree-1 reticulation has in-degree 2, so it does not count
    nested = parse_enewick("((((((5)#H2,6),(#H2,7)))#H1,2),(#H1,3));")
    assert not has_degree2_node(nested)


def test_g1_cycle_orientation(g1):
    (c,) = cycles(g1)
    a = leafparent(g1, "2")
    b = leafparent(g1, "3")
    t = leafparent(g1, "1")
    assert c.root == g1.root
    assert c.reticulation == t
    # side a holds the lexicographically smaller first clade ({1,2} < {1,3})
    assert c.side_a == (a,)
    assert c.side_b == (b,)
    assert c.order == (g1.root, a, t, b)
    assert (g1.root, a) in c.edges() and (b, t) in c.edges()


def test_tree_has_no_cycles(t3a):
    assert cycles(t3a) == []


def test_one_clades_g1(g1):
    ones = build_clade_index(g1).one_clades
    t = leafparent(g1, "1")
    leaf = g1.leaf_by_label()
    assert set(ones[bits_of(g1, ["1", "2", "3"])]) == {g1.root}
    # the reticulation and the leaf below it witness the same value
    assert set(ones[bits_of(g1, ["1"])]) == {t, leaf["1"]}
    assert set(ones[bits_of(g1, ["2"])]) == {leaf["2"]}
    # cycle-side nodes are not 1-clade nodes
    assert bits_of(g1, ["1", "2"]) not in ones


def test_two_clades_g1(g1):
    twos = build_clade_index(g1).two_clades
    a = leafparent(g1, "2")
    b = leafparent(g1, "3")
    t = leafparent(g1, "1")
    as_sets = {val: {frozenset(p) for p in pairs} for val, pairs in twos.items()}
    assert as_sets == {
        bits_of(g1, ["1", "2"]): {frozenset({a, t})},
        bits_of(g1, ["1", "3"]): {frozenset({b, t})},
        bits_of(g1, ["1", "2", "3"]): {frozenset({a, b})},
    }


def test_trees_have_only_one_clades(t3a):
    idx = build_clade_index(t3a)
    assert idx.two_clades == {}
    assert set(idx.one_clades) == {
        bits_of(t3a, ["1", "2", "3"]),
        bits_of(t3a, ["1", "2"]),
        bits_of(t3a, ["1"]),
        bits_of(t3a, ["2"]),
        bits_of(t3a, ["3"]),
    }


def test_clade_index_labels_helper(g1):
    idx = build_clade_index(g1)
    assert idx.labels(bits_of(g1, ["1", "3"])) == ("1", "3")
    assert idx.labels(0) == ()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_clade_unicity_on_random_samples(seed):
    n = gen_wgt(4 + seed % 4, seed % 3, seed)
    idx = build_clade_index(n)
    for val, nodes in idx.one_clades.items():
        assert 1 <= len(nodes) <= 2, (val, nodes)
    for val, pairs in idx.two_clades.items():
        assert len(pairs) == 1, (val, pairs)


def test_rules_reduce_mirrored_trees_to_stars(t3a, t3b):
    r1, r2, count = apply_rules(t3a, t3b)
    assert count == 2
    assert r1.num_internal == 1 and r2.num_internal == 1
    assert is_isomorphic(r1, r2)


def test_rules_fix_point_on_identical_inputs(g1, t3a):
    for n in (g1, t3a):
        r1, r2, count = apply_rules(n, n)
        assert count == 0
        assert is_isomorphic(r1, n) and is_isomorphic(r2, n)


def test_rules_block_on_matching_full_clade(g1, star3):
    # the star's root witnesses {1,2,3}, which is also a 2-clade of the
    # cycle, so neither side fires under the literal blocking sets
    r1, r2, count = apply_rules(g1, star3)
    assert count == 0
    assert is_isomorphic(r1, g1) and is_isomorphic(r2, star3)


def test_rules_require_equal_universes(t3a):
    other = parse_enewick("((1,2),4);")
    with pytest.raises(LeafSetMismatch):
        apply_rules(t3a, other)


def _rule_status(solver, comps) -> dict:
    """(rule, side, node, prime) -> enabled, for every rule candidate of the
    pair, from a fresh comp_index of the other side; checks on the way that
    no dangling prime's head is side-internal."""
    status = {}
    for s in (0, 1):
        nd, other = solver.nd[s], solver.nd[1 - s]
        assert not any(p[0] == "D" and p[1] in nd.side_of for p in comps[s]), comps[s]
        index = other.comp_index(comps[1 - s])
        for p in comps[s]:
            for z, rule, prime, queries in solver.prime_candidates(s, p):
                status[rule, s, z, prime] = not any(other.has_value(index, q) for q in queries)
    return status


def _check_schedule(solver, comps) -> list:
    """The cascade from comps, checked one firing at a time against a
    from-scratch reference; returns its firings."""
    fired, point = solver.cascade(*comps)
    status = _rule_status(solver, comps)
    for s, z, rule, prime in fired:
        firing = (rule, s, z, prime)
        assert firing == min(c for c, on in status.items() if on)
        comps = tuple(
            solver.advance(s, comps[s], prime, z) if t == s else comps[t] for t in (0, 1)
        )
        after = _rule_status(solver, comps)
        assert all(status.get(c, on) == on for c, on in after.items()), firing
        status = after
    assert comps == point and not any(status.values())
    return fired


def test_cascade_follows_the_schedule():
    # The digest below reaches the same fixed point under any firing order,
    # so the order itself is checked here, one firing at a time against a
    # from-scratch reference: each firing is the least enabled (rule, side,
    # node) of the pair it fires on (Rule 1 before Rule 2, network 1 before
    # network 2, lowest node first), and no candidate that survives a firing
    # changes status, which is what lets a popped blocked candidate stay
    # popped. It runs from every fC key that solving each pair creates: the
    # root compositions, and mid-DP keys, whose advanced cycle tops and hangs
    # are where firing-made candidates join the slots.
    both_rules = both_sides = keys = firings = 0
    for n1, n2 in _rules_digest_pairs():
        solver = _Solver(n1, n2)
        solver.run()
        roots = tuple(nd.decompose(nd.n.root) for nd in solver.nd)
        for key in solver.fc_memo:
            fired = _check_schedule(solver, key)
            keys += 1
            firings += len(fired)
            if key == roots:
                both_rules += len({rule for _, _, rule, _ in fired}) == 2
                both_sides += len({s for s, *_ in fired}) == 2
    assert both_rules >= 72 and both_sides >= 125  # as counted when written
    # 1,972 keys (300 of them roots) and 4,871 firings when written
    assert keys >= 1900 and firings >= 4800


def test_rules_take_solves_input_contract(t3b):
    # The rules run on the DP's engine, so the inputs are solve's: a leaf
    # set mismatch is raised first, then network 1's structural error.
    with pytest.raises(Degree2Node):
        apply_rules(parse_enewick("(((1,2)),3);"), t3b)
    with pytest.raises(LeafSetMismatch):
        apply_rules(parse_enewick("(((1,2)),4);"), t3b)
    shared = parse_enewick("((((1)#H1,2),(#H1,(3)#H2)),(#H2,4));")
    with pytest.raises(LeafSetMismatch):
        apply_rules(shared, t3b)
    with pytest.raises(NotWeaklyGalled):
        apply_rules(shared, parse_enewick("((((1,2)),3),4);"))


def test_rules_never_increase_delta(t3a, t3b, g1, star3):
    from phylocontract import exact_mcc

    for n1, n2 in [(t3a, t3b), (g1, star3), (t3b, star3)]:
        before = exact_mcc(n1, n2)[0]
        r1, r2, count = apply_rules(n1, n2)
        after = exact_mcc(r1, r2)[0]
        assert before == count + after


def _rules_digest_pairs():
    """Seeded pairs for the frozen apply_rules digest: random weakly galled
    trees against 1-6-contraction copies, against independent samples on as
    many leaves, and every ordered pair of the four fixtures."""
    rng = SplitMix64(1301)
    for _ in range(150):
        leaves = rng.randint(3, 60)
        n = gen_wgt(leaves, rng.randint(0, min(5, leaves // 3)), rng.randrange(1 << 30))
        yield n, perturb(n, rng.randint(1, 6), rng.randrange(1 << 30))
    for _ in range(134):
        leaves = rng.randint(3, 40)
        retics = rng.randint(0, min(4, leaves // 3))
        yield (
            gen_wgt(leaves, retics, rng.randrange(1 << 30)),
            gen_wgt(leaves, retics, rng.randrange(1 << 30)),
        )
    fixtures = [parse_enewick(t) for t in (G1_TEXT, T3A_TEXT, T3B_TEXT, STAR3_TEXT)]
    for n1 in fixtures:
        for n2 in fixtures:
            yield n1, n2


def test_rules_digest_is_frozen():
    # One SHA-256 over the firing count and both reduced networks of every
    # pair above, recorded from the per-round clade-index implementation of
    # the rules: any other engine must fire the same contractions in the
    # same order, fresh node ids included.
    h = hashlib.sha256()
    fired = 0
    for n1, n2 in _rules_digest_pairs():
        r1, r2, count = apply_rules(n1, n2)
        fired += count > 0
        h.update(f"{count}\n{write_edgelist(r1)}{write_edgelist(r2)}".encode())
    assert fired >= 180  # 189 of the 300 pairs fire at least one rule
    assert h.hexdigest() == "89c108ee220b59711aaf8ed3f7d0f733c3696e7c96ec6e554f606cfc4f6fdbca"


# -- the cycle walk against the lowpoint reference ---------------------------


def _lowpoint_is_weakly_galled(n) -> bool:
    """Reference: in-degrees at most 2, and every nontrivial biconnected block
    of the underlying graph is a simple cycle whose orientation has one
    source and one in-degree-2 node (iterative lowpoint algorithm)."""
    if any(len(n.pred[u]) > 2 for u in n.succ):
        return False
    adj = {u: [] for u in n.succ}
    for u, v in n.edges():
        adj[u].append((v, u, v))
        adj[v].append((u, u, v))
    disc, low, comps, edge_stack, counter = {}, {}, [], [], 0
    for start in n.nodes():
        if start in disc:
            continue
        disc[start] = low[start] = counter
        counter += 1
        stack = [[start, None, 0]]
        while stack:
            frame = stack[-1]
            u, parent_edge, idx = frame
            if idx < len(adj[u]):
                frame[2] += 1
                other, eu, ev = adj[u][idx]
                edge = (eu, ev)
                if edge == parent_edge:
                    continue
                if other not in disc:
                    disc[other] = low[other] = counter
                    counter += 1
                    edge_stack.append(edge)
                    stack.append([other, edge, 0])
                elif disc[other] < disc[u]:
                    edge_stack.append(edge)
                    low[u] = min(low[u], disc[other])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        comp = []
                        while edge_stack:
                            e = edge_stack.pop()
                            comp.append(e)
                            if e == parent_edge:
                                break
                        comps.append(comp)
    for comp in comps:
        if len(comp) <= 1:
            continue
        comp_nodes = {x for e in comp for x in e}
        if len(comp) != len(comp_nodes):
            return False
        indeg = dict.fromkeys(comp_nodes, 0)
        for _, v in comp:
            indeg[v] += 1
        if sorted(indeg.values()) != [0] + [1] * (len(comp_nodes) - 2) + [2]:
            return False
    return True


def _with_internal_edges(n, count: int, seed: int):
    """n plus up to `count` random edges between internal nodes that keep it
    a valid network, or None when no such edge was drawn."""
    rng = SplitMix64(seed)
    edges = set(n.edges())
    internal = n.internal_nodes()
    added = 0
    for _ in range(8 * count):
        if added == count:
            break
        u, v = rng.choice(internal), rng.choice(internal)
        if v == n.root or (u, v) in edges or u == v:
            continue
        succ = {x: [] for x in n.succ}
        for a, b in edges:
            succ[a].append(b)
        seen, stack = {v}, [v]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if u in seen:
            continue
        edges.add((u, v))
        added += 1
    return validate(edges, n.leaf_label) if added else None


def _raw_contractions(n):
    for u, v in n.edges():
        yield contract(n, Contraction(u, v, n.fresh_id()))


def test_walk_matches_lowpoint_reference():
    # The cycle walk and the biconnected-components test decide the same
    # networks: random weakly galled trees, the same trees with extra
    # internal edges, every acyclic raw contraction of both, both hardness
    # reductions over all small Set Splitting instances, and diameter pairs
    # with the (4, 6, 6) ladders. Cyclic raw contractions must terminate.
    nets = []
    for leaves in range(3, 26, 2):
        for retics in range(0, 5):
            for seed in (0, 1):
                try:
                    n = random_wgt(leaves, retics, seed)
                except GenerationFailed:
                    continue
                nets.append(n)
                extra = _with_internal_edges(n, 1 + seed + retics % 2, 7 * leaves + retics)
                if extra is not None:
                    nets.append(extra)
    raw = [m for n in nets for m in _raw_contractions(n)]
    nets += [m for m in raw if is_acyclic(m)]
    for inst in _all_small_instances():
        nets += reduction_five_leaves(inst)[:2]
        nets += reduction_deg_bounded(inst)[:2]
    for l in (4, 5, 6):
        for m in range(2, 8):
            for mp in range(2, 8):
                nets += diameter_pair(l, m, mp)
    verdicts = [is_weakly_galled(n) for n in nets]
    assert verdicts == [_lowpoint_is_weakly_galled(n) for n in nets]
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000
    for m in raw:
        if not is_acyclic(m):
            assert is_weakly_galled(m) in (True, False)


def _cycles_digest(nets) -> str:
    h = hashlib.sha256()
    for n in nets:
        cyc = [(c.root, c.reticulation, c.side_a, c.side_b) for c in cycles(n)]
        h.update(repr(cyc).encode())
    return h.hexdigest()


def test_cycles_frozen_on_random_and_diameter_networks():
    # Roots, reticulations and oriented sides over a random_wgt grid and the
    # weakly galled diameter pairs; recorded before the cycle walk existed.
    nets = []
    for leaves in range(2, 61, 3):
        for retics in range(0, 7):
            for seed in (0, 1):
                try:
                    nets.append(random_wgt(leaves, retics, seed))
                except GenerationFailed:
                    continue
    for l in range(4, 9):
        for m in range(2, 3 * l + 1, 2):
            for mp in range(2, 3 * l + 1, 3):
                try:
                    pair = diameter_pair(l, m, mp)
                except InvalidParameters:
                    continue
                nets += [n for n in pair if is_weakly_galled(n)]
    assert len(nets) > 400
    assert _cycles_digest(nets) == "8837b2138f0c32665631d104d5f7ac7a8b828910c170a3869b46dc21f9c7d820"
