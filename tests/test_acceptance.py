"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single
``ACCEPTANCE <n> PASS|FAIL (<seconds>)`` line and enforces its wall-clock
budget with time.monotonic (budget overruns fail, they are never skipped).
All sampling is seeded, so every run checks the identical instance set.
"""

import itertools
import math
import statistics
import time
import warnings
from collections import defaultdict, deque
from pathlib import Path

from conftest import gen_wgt, mutate, perturb
from phylocontract.edit_ops import (
    Contraction,
    WitnessStructure,
    apply_sequence,
    contract,
    contract_admissible,
    quotient,
    sequence_to_witness,
    validate_witness,
    witness_to_sequence,
)
from phylocontract.errors import (
    InadmissibleContraction,
    NotWeaklyGalled,
    PhyloError,
)
from phylocontract.galled import build_clade_index, has_degree2_node, is_weakly_galled
from phylocontract.generators import (
    SetSplittingInstance,
    SplitMix64,
    deg_bounded_target,
    diameter_pair,
    is_splittable,
    reduction_deg_bounded,
    reduction_five_leaves,
)
from phylocontract.io_enewick import parse_edgelist, parse_enewick, write_enewick
from phylocontract.mcc_dp import apply_rules, solve, solve_with_stats
from phylocontract.mcc_oracle import exact_mcc, is_contraction, tree_mcc
from phylocontract.network_core import is_acyclic, is_isomorphic

FIXDIR = Path(__file__).parent / "fixtures"


def _finish(num: int, failures: list, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < budget
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_diameter_formula():
    # delta = m + m' - 2 across the whole grid; the brute-force oracle agrees
    # wherever both sides have at most 8 internal nodes. (4,6,6) is the one
    # grid point with no weakly galled realization: the emitted ladder pair
    # is outside the polynomial solver's domain but keeps the exact value.
    t0 = time.monotonic()
    failures = []
    for l in (4, 5, 6):
        for m in range(2, 8):
            for mp in range(2, 8):
                n1, n2 = diameter_pair(l, m, mp)
                want = m + mp - 2
                try:
                    got = solve(n1, n2)[0]
                    if got != want:
                        failures.append((l, m, mp, "solve", got, want))
                except NotWeaklyGalled:
                    if (l, m, mp) != (4, 6, 6):
                        failures.append((l, m, mp, "unexpected NotWeaklyGalled"))
                if n1.num_internal <= 8 and n2.num_internal <= 8:
                    got = exact_mcc(n1, n2)[0]
                    if got != want:
                        failures.append((l, m, mp, "exact", got, want))
    _finish(1, failures, t0, 10.0)


def test_criterion_02_oracle_equivalence_on_wgt_pairs():
    t0 = time.monotonic()
    failures = []
    rng = SplitMix64(2001)
    done = 0
    while done < 300:
        leaves = rng.randint(3, 6)
        n1 = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        n2 = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        if n1.num_internal > 8 or n2.num_internal > 8:
            continue
        got = solve(n1, n2)[0]
        want = exact_mcc(n1, n2)[0]
        if got != want:
            failures.append((write_enewick(n1), write_enewick(n2), got, want))
        done += 1
    _finish(2, failures, t0, 300.0)


def test_criterion_03_tree_specialization():
    t0 = time.monotonic()
    failures = []
    rng = SplitMix64(3001)
    done = 0
    while done < 300:
        leaves = rng.randint(3, 7)
        t1 = gen_wgt(leaves, 0, rng.randrange(1 << 30))
        t2 = gen_wgt(leaves, 0, rng.randrange(1 << 30))
        if t1.num_internal > 8 or t2.num_internal > 8:
            continue
        a = solve(t1, t2)[0]
        b = tree_mcc(t1, t2)[0]
        c = exact_mcc(t1, t2)[0]
        if not (a == b == c):
            failures.append((write_enewick(t1), write_enewick(t2), a, b, c))
        done += 1
    _finish(3, failures, t0, 60.0)


def _all_small_instances():
    """Every Set Splitting instance with |X| <= 4, 1-3 distinct sets, |S| >= 2."""
    out = []
    for k in (2, 3, 4):
        universe = tuple(str(i + 1) for i in range(k))
        subsets = [
            frozenset(c)
            for r in range(2, k + 1)
            for c in itertools.combinations(universe, r)
        ]
        for count in (1, 2, 3):
            for combo in itertools.combinations(subsets, count):
                out.append(SetSplittingInstance(universe=universe, sets=combo))
    return out


def test_criterion_04_hardness_gadget_faithfulness():
    t0 = time.monotonic()
    failures = []
    instances = _all_small_instances()
    assert len(instances) == 246
    for inst in instances:
        want = is_splittable(inst)
        na, nb, _ = reduction_five_leaves(inst)
        got_five = is_contraction(na, nb) is not None
        m1, m2, _ = reduction_deg_bounded(inst)
        target = deg_bounded_target(inst)
        got_deg = (
            is_contraction(m1, target) is not None
            and is_contraction(m2, target) is not None
        )
        if got_five != want or got_deg != want:
            failures.append((inst, want, got_five, got_deg))
    _finish(4, failures, t0, 600.0)


def test_criterion_05_admissibility_biconditional():
    # For every edge: the raw contraction is acyclic iff no alternative
    # directed path runs from u to v. The path side is recomputed here with
    # a plain BFS so the two sides of the biconditional are independent.
    t0 = time.monotonic()
    failures = []
    rng = SplitMix64(5001)
    for i in range(200):
        n = gen_wgt(rng.randint(3, 8), rng.randint(0, 2), rng.randrange(1 << 30))
        if i % 3 == 2:
            n = perturb(n, 2, rng.randrange(1 << 30))
        for u in sorted(n.succ):
            for v in n.succ[u]:
                seen = set(n.succ[u]) - {v}
                queue = deque(seen)
                while queue:
                    x = queue.popleft()
                    for y in n.succ[x]:
                        if y not in seen:
                            seen.add(y)
                            queue.append(y)
                alt_path = v in seen
                acyclic = is_acyclic(contract(n, Contraction(u, v, n.fresh_id())))
                if acyclic == alt_path:
                    failures.append((write_enewick(n), u, v, acyclic, alt_path))
    _finish(5, failures, t0, 60.0)


def _random_connected_partition(n, rng):
    internals = sorted(n.internal_nodes())
    nbrs = {u: set() for u in internals}
    for u in internals:
        for v in n.succ[u]:
            if v in nbrs:
                nbrs[u].add(v)
                nbrs[v].add(u)
    parts, unused = [], set(internals)
    while unused:
        seed = rng.choice(sorted(unused))
        size = rng.randint(1, 3)
        part = {seed}
        unused.discard(seed)
        frontier = sorted(nbrs[seed] & unused)
        while len(part) < size and frontier:
            v = rng.choice(frontier)
            part.add(v)
            unused.discard(v)
            frontier = sorted((set(frontier) | nbrs[v]) & unused)
        parts.append(part)
    return parts


def test_criterion_06_witness_round_trip():
    t0 = time.monotonic()
    failures = []
    rng = SplitMix64(606)
    done = 0
    while done < 200:
        n = gen_wgt(rng.randint(3, 8), rng.randint(0, 2), rng.randrange(1 << 30))
        parts = _random_connected_partition(n, rng)
        try:
            m = quotient(n, parts)
        except PhyloError:
            continue
        mapping = {x: i for i, p in enumerate(parts) for x in p}
        grouped = defaultdict(set)
        for src, q in mapping.items():
            grouped[q].add(src)
        w = WitnessStructure(parts={q: frozenset(ms) for q, ms in grouped.items()})
        ok, why = validate_witness(n, m, w)
        if not ok:
            failures.append((write_enewick(n), "witness invalid", why))
            done += 1
            continue
        seq = witness_to_sequence(n, m, w)
        replay = apply_sequence(n, seq)
        if not is_isomorphic(replay, m):
            failures.append((write_enewick(n), "replay not isomorphic"))
        m2, w2 = sequence_to_witness(n, seq)
        if not is_isomorphic(m2, m):
            failures.append((write_enewick(n), "extracted network differs"))
        if set(w2.parts.values()) != set(w.parts.values()):
            failures.append((write_enewick(n), "extracted witness differs"))
        done += 1
    _finish(6, failures, t0, 60.0)


def test_criterion_07_structural_conservation():
    t0 = time.monotonic()
    failures = []
    rng = SplitMix64(7001)
    done = 0
    while done < 500:
        n = gen_wgt(rng.randint(3, 8), rng.randint(0, 2), rng.randrange(1 << 30))
        edges = sorted(
            (u, v) for u in n.succ for v in n.succ[u] if v not in n.leaf_label
        )
        if not edges:
            continue
        u, v = rng.choice(edges)
        try:
            m = contract_admissible(n, u, v)
        except InadmissibleContraction:
            continue
        idx_n, idx_m = build_clade_index(n), build_clade_index(m)
        src1, src2 = set(idx_n.one_clades), set(idx_n.two_clades)
        out1, out2 = idx_m.one_clades, idx_m.two_clades
        if not is_weakly_galled(m):
            failures.append((write_enewick(n), u, v, "result not weakly galled"))
        if not set(out1) <= src1 | src2:
            failures.append((write_enewick(n), u, v, "new 1-clade value"))
        if not set(out2) <= src2:
            failures.append((write_enewick(n), u, v, "new 2-clade value"))
        if not has_degree2_node(m):
            if not all(1 <= len(nodes) <= 2 for nodes in out1.values()):
                failures.append((write_enewick(n), u, v, "1-clade unicity"))
            if not all(len(pairs) == 1 for pairs in out2.values()):
                failures.append((write_enewick(n), u, v, "2-clade unicity"))
        done += 1
    _finish(7, failures, t0, 60.0)


def test_criterion_08_rule_safety():
    # Whenever a reduction rule fires, the dissimilarity decomposes exactly
    # into the charged contractions plus the reduced pair's dissimilarity,
    # with both distances measured by the brute-force oracle.
    t0 = time.monotonic()
    failures = []
    rng = SplitMix64(8001)
    done = 0
    while done < 100:
        leaves = rng.randint(3, 5)
        n1 = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        n2 = gen_wgt(leaves, rng.randint(0, 2), rng.randrange(1 << 30))
        if n1.num_internal > 7 or n2.num_internal > 7:
            continue
        r1, r2, count = apply_rules(n1, n2)
        if count == 0:
            continue
        direct = exact_mcc(n1, n2)[0]
        composed = count + exact_mcc(r1, r2)[0]
        if direct != composed:
            failures.append((write_enewick(n1), write_enewick(n2), direct, composed))
        done += 1
    _finish(8, failures, t0, 300.0)


def _wgt_with_at_least(target_nodes: int, seed: int):
    rng = SplitMix64(seed)
    leaves = max(3, int(target_nodes * 0.55))
    while True:
        n = gen_wgt(leaves, max(1, target_nodes // 50), rng.randrange(1 << 30))
        if len(n.succ) >= target_nodes:
            return n
        leaves += max(1, (target_nodes - len(n.succ)) // 2)


def _loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def test_criterion_09_scaling_sanity():
    # Identical and lightly perturbed pairs keep the leaf-anchored tables
    # populated; independently sampled pairs collapse to the star and report
    # empty tables, which would make the regression meaningless.
    t0 = time.monotonic()
    failures = []
    sizes = (25, 50, 100, 200)
    fp_medians, fl_medians, n_medians = [], [], []
    for target in sizes:
        fps, fls, ns = [], [], []
        for s in range(8):
            n = _wgt_with_at_least(target, 10_000 + 1000 * target + s)
            n2 = perturb(n, 4, 777 + s)
            for pair in ((n, n), (n, n2)):
                t1 = time.monotonic()
                (_, _, _, _), stats = solve_with_stats(*pair)
                dt = time.monotonic() - t1
                if target == 200 and dt >= 30.0:
                    failures.append((len(n.succ), "solve", dt))
                fps.append(max(stats.fp_entries, 1))
                fls.append(max(stats.fl_entries, 1))
                ns.append(len(n.succ))
        fp_medians.append(statistics.median(fps))
        fl_medians.append(statistics.median(fls))
        n_medians.append(statistics.median(ns))
    fp_slope = _loglog_slope(n_medians, fp_medians)
    fl_slope = _loglog_slope(n_medians, fl_medians)
    if fp_slope > 2.3:
        failures.append(("fp slope", fp_slope))
    if fl_slope > 2.3:
        failures.append(("fl slope", fl_slope))
    _finish(9, failures, t0, 120.0)


def test_criterion_10_parser_round_trip_and_fuzz():
    t0 = time.monotonic()
    failures = []

    for path in sorted(FIXDIR.glob("*.nwk")):
        n = parse_enewick(path.read_text())
        if not is_isomorphic(parse_enewick(write_enewick(n)), n):
            failures.append((path.name, "fixture round trip"))
    for path in sorted(FIXDIR.glob("*.edges")):
        n = parse_edgelist(path.read_text())
        if not is_isomorphic(parse_enewick(write_enewick(n)), n):
            failures.append((path.name, "fixture round trip"))

    rng = SplitMix64(10_001)
    for _ in range(1000):
        n = gen_wgt(rng.randint(3, 9), rng.randint(0, 2), rng.randrange(1 << 30))
        if not is_isomorphic(parse_enewick(write_enewick(n)), n):
            failures.append((write_enewick(n), "random round trip"))

    rng = SplitMix64(10_002)
    seeds = [
        "((1,2),3);",
        "(((1)#H1,2),(#H1,3));",
        "(1,2,(((3,(4)#H1),(#H1)#H2),#H2));",
        "('sp. one','two''s',three);",
        "((1));",
    ]
    # Deep nesting: 1200 levels, past Python's default recursion limit, above
    # a reticulation, a quoted label and a branch length; its own stream.
    deep = "(" * 1200 + "((0)#H1,'x y'),(#H1,z:0.5)"
    deep += "".join(f",{i})" for i in range(1, 1201)) + ";"
    deep_rng = SplitMix64(10_003)
    fuzz = itertools.chain(
        (mutate(rng, seeds[rng.randrange(len(seeds))]) for _ in range(10_000)),
        (mutate(deep_rng, deep) for _ in range(300)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parse_enewick(deep)
        for text in fuzz:
            try:
                parse_enewick(text)
            except PhyloError:
                pass
            except Exception as exc:  # noqa: BLE001 - the fuzz contract itself
                failures.append((repr(text[:200]), type(exc).__name__, str(exc)))
    _finish(10, failures, t0, 120.0)
