"""Shared fixtures: the four hand-checked networks and seeded samplers."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from phylocontract import contract_admissible, cycles, is_admissible, parse_enewick, random_wgt
from phylocontract.errors import GenerationFailed, InadmissibleContraction
from phylocontract.galled import has_degree2_node
from phylocontract.generators import SplitMix64

G1_TEXT = "(((1)#H1,2),(#H1,3));"
T3A_TEXT = "((1,2),3);"
T3B_TEXT = "((1,3),2);"
STAR3_TEXT = "(1,2,3);"


@pytest.fixture
def g1():
    return parse_enewick(G1_TEXT)


@pytest.fixture
def t3a():
    return parse_enewick(T3A_TEXT)


@pytest.fixture
def t3b():
    return parse_enewick(T3B_TEXT)


@pytest.fixture
def star3():
    return parse_enewick(STAR3_TEXT)


@pytest.fixture
def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def gen_wgt(num_leaves: int, num_reticulations: int, seed: int):
    """random_wgt with seed retries; some (leaves, retics, seed) triples are
    infeasible for the sampled tree and raise GenerationFailed."""
    for s in range(seed, seed + 80):
        try:
            return random_wgt(num_leaves, num_reticulations, s)
        except GenerationFailed:
            continue
    raise GenerationFailed(
        f"no feasible sample near seed {seed} "
        f"for {num_leaves} leaves / {num_reticulations} reticulations"
    )


def perturb(n, k: int, seed: int):
    """Apply up to k random admissible contractions, keeping degree-2-freedom."""
    rng = SplitMix64(seed)
    for _ in range(k):
        edges = sorted(
            (u, v) for u in n.succ for v in n.succ[u] if v not in n.leaf_label
        )
        done = False
        for _attempt in range(40):
            if not edges:
                break
            u, v = rng.choice(edges)
            try:
                cand = contract_admissible(n, u, v)
            except InadmissibleContraction:
                continue
            if has_degree2_node(cand):
                continue
            n = cand
            done = True
            break
        if not done:
            break
    return n


def mutate(rng, text: str) -> str:
    """Criterion 10's fuzz step: one to four random character replacements,
    insertions or deletions drawn from rng."""
    alphabet = "(),;#H0123456789ab:'. \n"
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(max(1, len(chars)))
        ch = alphabet[rng.randrange(len(alphabet))]
        if op == 0 and chars:
            chars[pos] = ch
        elif op == 1:
            chars.insert(pos, ch)
        elif op == 2 and len(chars) > 1:
            del chars[pos]
    return "".join(chars)


def caterpillar_edgelist(leaves: int) -> str:
    """Edge list of a caterpillar: a chain of leaves - 1 internal nodes, one
    leaf per level and two at the bottom."""
    lines = []
    for i in range(leaves - 1):
        if i < leaves - 2:
            lines.append(f"i{i} i{i + 1}")
        lines.append(f"i{i} l{i}")
    lines.append(f"i{leaves - 2} l{leaves - 1}")
    lines.append("#leaves")
    lines.extend(f"l{i} x{i}" for i in range(leaves))
    return "\n".join(lines) + "\n"


def long_cycle(s: int):
    """One cycle whose two sides have s nodes each; every side node and the
    reticulation carry one leaf, 4s + 3 nodes in all. In eNewick it is
    (A,B); where A starts as (x)#H1 and B as #H1, each wrapped s times as
    (A,a_i) and (B,b_i) for i = s down to 1."""
    a, b = "(x)#H1", "#H1"
    for i in range(s, 0, -1):
        a, b = f"({a},a{i})", f"({b},b{i})"
    return parse_enewick(f"({a},{b});")


def contracted_copy(n, k: int):
    """n after k contractions, each of the first admissible edge between
    consecutive side nodes of a cycle, in NodeId order of the network at
    hand. A k-contraction m of n has delta(n, m) = k."""
    for _ in range(k):
        edges = sorted(
            (x, y)
            for c in cycles(n)
            for side in (c.side_a, c.side_b)
            for x, y in zip(side, side[1:])
        )
        u, v = next((u, v) for u, v in edges if is_admissible(n, u, v))
        n = contract_admissible(n, u, v)
    return n


def src_env() -> dict[str, str]:
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def cascade_pairs(solver, k1: tuple, k2: tuple):
    """The composition pairs a rule cascade from (k1, k2) passes through,
    each with the number of firings before it: (k1, k2) first, the fixed
    point last. Each firing is replayed with `_Solver.advance`."""
    fired, point = solver.cascade(k1, k2)
    pair = [k1, k2]
    yield (k1, k2), 0
    for step, (s, z, _, prime) in enumerate(fired, start=1):
        pair[s] = solver.advance(s, pair[s], prime, z)
        yield tuple(pair), step
    assert tuple(pair) == point, (k1, k2)
