"""Polynomial solver on weakly galled trees, checked against the brute oracle."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import gen_wgt, perturb
from phylocontract.cli import _witness_json
from phylocontract.edit_ops import validate_witness
from phylocontract.errors import Degree2Node, LeafSetMismatch, NotWeaklyGalled
from phylocontract.galled import is_weakly_galled
from phylocontract.generators import SplitMix64
from phylocontract.io_enewick import parse_enewick, write_enewick
from phylocontract.mcc_dp import _Solver, solve, solve_with_stats
from phylocontract.mcc_oracle import exact_mcc, is_contraction
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


def test_common_network_is_contraction_of_both():
    rng = SplitMix64(505)
    for _ in range(6):
        leaves = rng.randint(3, 5)
        n1 = gen_wgt(leaves, rng.randint(0, 1), rng.randrange(1 << 30))
        n2 = gen_wgt(leaves, rng.randint(0, 1), rng.randrange(1 << 30))
        _, m, _, _ = solve(n1, n2)
        assert is_contraction(n1, m) is not None
        assert is_contraction(n2, m) is not None


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
# reach, so these values, recorded from the solver that built a clade set
# per prime, are their only reference.
FROZEN = [
    ((20, 2, 11, 3), (3, 68, 34, 37, "cfd8e7a363572cc3", "31695a9d16a18d39")),
    ((24, 3, 21, 0), (41, 43, 26, 0, "754a24c226ea592b", "2f77d21535c4d890")),
    ((34, 3, 12, 10), (10, 191, 64, 85, "164754dbbd67c4b8", "39df91d26de7dcf8")),
    ((48, 4, 13, 5), (5, 202, 94, 168, "2c35d99253889607", "3bd38115f3f7b1af")),
    ((60, 5, 14, 0), (95, 89, 60, 0, "76d98ab49c119232", "176bf46005c9bb34")),
    ((72, 2, 15, 4), (4, 325, 145, 343, "5f110b45be4be341", "8edf87226636e02f")),
    ((85, 3, 16, 12), (12, 290, 143, 175, "3c98d40575a655fa", "0d4cab98276b3b08")),
    ((96, 4, 17, 6), (6, 220, 163, 98, "2ca1857e6e832797", "185e18f9d8b0b322")),
    ((108, 5, 18, 0), (154, 147, 108, 0, "6d1e4e0f410fd144", "90db0c592e5a8055")),
    ((120, 3, 19, 2), (2, 457, 233, 784, "533ce2d903699fc2", "bdd15fd623f60f9f")),
    ((30, 5, 20, 0), (56, 50, 30, 0, "fd20c8da0a26d4c8", "a378b194eaf59c57")),
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


@pytest.mark.parametrize("spec", [(34, 3, 12, 10), (48, 4, 13, 5), (30, 5, 20, 0)])
def test_has_value_matches_materialized_clades(spec):
    solver = _Solver(*_frozen_pair(*spec))
    solver.run()
    asked = 0
    for comps in list(solver.fc_memo):
        for s in (0, 1):
            other = solver.nd[1 - s]
            known = _materialized_values(other, comps[1 - s])
            index = other.comp_index(comps[1 - s])
            queries = {q for *_, qs in solver.candidates(s, comps[s]) for q in qs}
            for q in queries | set(other.one_wit) | set(other.two_wit):
                assert other.has_value(index, q) == (q in known), (comps, s, q)
            asked += len(queries)
    assert asked > 0


# -- self-checks ----------------------------------------------------------------


SELF_CHECK_SCRIPT = """
import sys
import phylocontract.edit_ops as edit_ops
from phylocontract import exact_mcc, parse_enewick, solve, tree_mcc
from phylocontract.errors import SelfCheckFailed

print(f"optimize={sys.flags.optimize}")
edit_ops.validate_witness = lambda n, m, w: (False, "planted")
a, b = parse_enewick("((1,2),3);"), parse_enewick("((1,3),2);")
for f in (solve, exact_mcc, tree_mcc):
    try:
        f(a, b)
    except SelfCheckFailed as exc:
        print(f.__name__, exc)
"""


def test_witness_self_checks_survive_python_O():
    # python -O drops asserts; the checks that end solve, exact_mcc and
    # tree_mcc must still catch a witness that fails validation.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECK_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize=1",
        *(f"{name} witness check failed: planted" for name in ("solve", "exact_mcc", "tree_mcc")),
    ]
