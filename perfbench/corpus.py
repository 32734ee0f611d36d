"""Seeded input corpora for the benchmark workloads.

Each workload builder returns a list of `Instance`s: two eNewick texts, the
`phylocontract` subcommand that compares them, and a reference answer that
comes from the construction (contractions applied, shared-clade counts,
m + m' - 2, known gadget splittability) or from the other engine (the DP's
delta for an independent pair solved by the oracle). Inputs are written by
this module's own eNewick writer, so the corpus digest depends only on the
networks the generators return, never on `write_enewick`.

Sizes are stratified: instance i of N takes the midpoint of the i-th of N
equal slices of the workload's range, so every seed covers the whole range
with the same density and the seed changes only the shapes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from phylocontract import (
    contract_admissible,
    diameter_pair,
    is_admissible,
    random_wgt,
    reduction_five_leaves,
    solve,
)
from phylocontract.errors import GenerationFailed, InvalidParameters
from phylocontract.generators import SetSplittingInstance

WORKLOADS = ("wgt_pairs", "deep_trees", "wide_trees", "oracle_small", "deep_ceiling")


@dataclass(frozen=True)
class Instance:
    name: str
    mode: str  # "wgt" (the DP) or "exact" (the oracle)
    texts: tuple[str, str]
    internal: tuple[int, int]  # |I1|, |I2| from the construction
    leaves: frozenset[str]
    delta: int | None  # reference delta; None: only an upper bound on common_size
    max_common: int | None = None  # with delta None: common_size must not exceed this
    mcnc: int | None = None  # passed as --mcnc; exit 0 iff common_size > mcnc
    expect_rc: int = 0

    @property
    def nodes(self) -> int:
        return sum(self.internal) + 2 * len(self.leaves)

    @property
    def common_size(self) -> int | None:
        if self.delta is None:
            return None
        return (sum(self.internal) - self.delta) // 2


# --- plain adjacency helpers (the benchmark's own, independent of the package)


def enewick(succ: dict, pred: dict, label: dict, root) -> str:
    """Iterative eNewick writer: children in stored order, reticulations tagged
    #H1, #H2, ... in discovery order, first visit carrying the children."""
    out: list[str] = []
    tags: dict = {}
    stack: list = [";", root]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        if x in label:
            out.append(label[x])
            continue
        close = ")"
        if len(pred.get(x, ())) >= 2:
            if x in tags:
                out.append(f"#H{tags[x]}")
                continue
            tags[x] = len(tags) + 1
            close = f")#H{tags[x]}"
        kids = succ[x]
        stack.append(close)
        for i, c in enumerate(reversed(kids)):
            stack.append(c)
            if i < len(kids) - 1:
                stack.append(",")
        out.append("(")
    return "".join(out)


def net_text(n) -> str:
    return enewick(n.succ, n.pred, n.leaf_label, n.root)


class Tree:
    """A rooted tree built by the benchmark: node ids, children lists, leaf labels."""

    def __init__(self):
        self.succ: dict[int, list[int]] = {}
        self.label: dict[int, str] = {}

    def node(self, parent: int | None = None) -> int:
        u = len(self.succ)
        self.succ[u] = []
        if parent is not None:
            self.succ[parent].append(u)
        return u

    def leaf(self, parent: int, lab: str) -> int:
        u = self.node(parent)
        self.label[u] = lab
        return u

    def text(self) -> str:
        return enewick(self.succ, {}, self.label, 0)

    def clades(self) -> set[frozenset[str]]:
        """Leaf sets of the internal nodes (node 0 is the root)."""
        below: dict[int, frozenset[str]] = {}
        order, stack = [], [0]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(self.succ[u])
        for u in reversed(order):
            if u in self.label:
                below[u] = frozenset([self.label[u]])
            else:
                below[u] = frozenset().union(*(below[c] for c in self.succ[u]))
        return {below[u] for u in self.succ if u not in self.label}


def tree_instance(name: str, t1: Tree, t2: Tree) -> Instance:
    """Tree pair with delta = I1 + I2 - 2 |shared clades|."""
    c1, c2 = t1.clades(), t2.clades()
    return Instance(
        name=name,
        mode="wgt",
        texts=(t1.text(), t2.text()),
        internal=(len(c1), len(c2)),
        leaves=frozenset(t1.label.values()),
        delta=len(c1) + len(c2) - 2 * len(c1 & c2),
    )


def _stratified(i: int, n: int, lo: float, hi: float) -> float:
    """Midpoint of the i-th of n equal slices of [lo, hi]."""
    return lo + (hi - lo) * (i + 0.5) / n


def _log_stratified(i: int, n: int, lo: float, hi: float) -> float:
    """As _stratified, on a log scale: as many instances per doubling of size."""
    return math.exp(_stratified(i, n, math.log(lo), math.log(hi)))


def _untouched_by_triangle(n, u, v) -> bool:
    """Contracting an edge of a 3-node cycle would fold the cycle into a
    degree-2 node, which the DP's input contract forbids."""
    return not (set(n.succ[u]) & set(n.succ[v]) or set(n.pred[u]) & set(n.pred[v]))


def perturb(tracer, rng: random.Random, n, k: int):
    """Apply up to k admissible contractions of internal edges; returns the
    contracted network and the number applied."""
    done = 0
    for _ in range(k):
        edges = [
            (u, v)
            for u, v in n.edges()
            if v not in n.leaf_label and _untouched_by_triangle(n, u, v)
        ]
        rng.shuffle(edges)
        for u, v in edges:
            if is_admissible(n, u, v):
                n = tracer.call("edit_ops.contract_admissible", contract_admissible, n, u, v)
                done += 1
                break
    return n, done


def _random_wgt(tracer, rng: random.Random, leaves: int, retics: int):
    """random_wgt at the first seed it succeeds with, lowering the
    reticulation count if no seed places them all."""
    while True:
        for _ in range(4):
            try:
                n = tracer.call(
                    "generators.random_wgt", random_wgt, leaves, retics, rng.getrandbits(32)
                )
            except GenerationFailed:
                continue
            tracer.count("generators.random_wgt.nodes", len(n.succ))
            return n
        retics -= 1


def _perturbed_instance(tracer, rng, name, n, k, mode="wgt") -> Instance:
    m, k = perturb(tracer, rng, n, k)
    return Instance(
        name=name,
        mode=mode,
        texts=(net_text(n), net_text(m)),
        internal=(n.num_internal, m.num_internal),
        leaves=frozenset(n.leaf_label.values()),
        delta=k,
    )


# --- workloads ----------------------------------------------------------------


def wgt_pairs(tracer, rng: random.Random, tiny: bool) -> list[Instance]:
    """Random WGTs of tens to ~500 nodes with 1-7 reticulations against a
    k-contraction copy, plus diameter pairs (delta = m + m' - 2). Counts
    (reticulations, k) cycle with the instance index; the seed picks shapes."""
    count, hi = (4, 40) if tiny else (96, 280)
    out = []
    for i in range(count):
        leaves = round(_stratified(i, count, 10, hi))
        n = _random_wgt(tracer, rng, leaves, 1 + i % (1 + leaves // 40))
        out.append(_perturbed_instance(tracer, rng, f"wgt{i}", n, 1 + i % 6))
    for i in range(count // 4):
        while True:
            leaves = round(_stratified(i, count // 4, 6, hi // 2))
            m, mp = rng.randint(2, leaves * 3 // 2), rng.randint(2, leaves * 3 // 2)
            try:
                n1, n2 = tracer.call("generators.diameter_pair", diameter_pair, leaves, m, mp)
            except InvalidParameters:
                continue
            break
        out.append(
            Instance(
                name=f"diam{i}",
                mode="wgt",
                texts=(net_text(n1), net_text(n2)),
                internal=(m, mp),
                leaves=frozenset(n1.leaf_label.values()),
                delta=m + mp - 2,
            )
        )
    return out


def caterpillar(order: list[str], merged: set[int] = frozenset()) -> Tree:
    """Spine s_0..s_{L-2}; s_i carries order[i], the last spine node the last
    two leaves. Spine node s_i for i in `merged` is contracted into its parent."""
    t = Tree()
    top = t.node()
    spine = [top]
    for i in range(1, len(order) - 1):
        spine.append(spine[-1] if i in merged else t.node(spine[-1]))
    for i, lab in enumerate(order):
        t.leaf(spine[min(i, len(spine) - 1)], lab)
    return t


def _deep(rng: random.Random, count: int, lo: float, hi: float, tag: str) -> list[Instance]:
    out = []
    for i in range(count):
        size = round(_log_stratified(i, count, lo, hi))
        order = [f"t{j}" for j in range(size)]
        other = list(order)
        for _ in range(i % 4):  # adjacent leaf swaps
            j = rng.randrange(size - 1)
            other[j], other[j + 1] = other[j + 1], other[j]
        merged = set(rng.sample(range(1, size - 1), 1 + i % 6))
        out.append(tree_instance(f"{tag}{i}", caterpillar(order), caterpillar(other, merged)))
    return out


def deep_trees(tracer, rng: random.Random, tiny: bool) -> list[Instance]:
    """Caterpillars of ~60 to ~450 leaves against a contracted and
    leaf-swapped copy; the emitted common contraction stays below the
    eNewick writer's nesting ceiling (~496 levels)."""
    return _deep(rng, 4, 20, 60, "deep") if tiny else _deep(rng, 64, 60, 450, "deep")


def deep_ceiling(tracer, rng: random.Random, tiny: bool) -> list[Instance]:
    """Caterpillars of 520-900 leaves, past the writer's nesting ceiling and
    below the parser's (~992 levels). Not a timed workload of BENCHMARK.json:
    it shows which inputs still end in an exception instead of an answer."""
    return _deep(rng, 2 if tiny else 6, 520, 900, "ceil")


def wide(rng: random.Random, clades: int, dissolve: int) -> tuple[Tree, Tree]:
    """Root with `clades` small clades of three or four leaves against a copy
    with `dissolve` of them dissolved into the root."""
    shapes = [rng.choice((3, 4)) for _ in range(clades)]
    dissolved = set(rng.sample(range(clades), dissolve))
    trees = []
    for drop in (set(), dissolved):
        t = Tree()
        root = t.node()
        lab = 0
        for i, size in enumerate(shapes):
            c = root if i in drop else t.node(root)
            for _ in range(size):
                t.leaf(c, f"x{lab}")
                lab += 1
        trees.append(t)
    return trees[0], trees[1]


def wide_trees(tracer, rng: random.Random, tiny: bool) -> list[Instance]:
    """Hundreds of small clades under the root: the writer's per-child label
    tuples cost more than the solve."""
    count, lo, hi = (4, 10, 30) if tiny else (64, 120, 270)
    return [
        tree_instance(f"wide{i}", *wide(rng, round(_log_stratified(i, count, lo, hi)), 2 + i % 5))
        for i in range(count)
    ]


# Five-leaf Set Splitting gadgets small enough for the oracle, with their
# splittability worked out by hand: {a} cannot be split, {a, b} can.
GADGETS = (
    (("a",), ({"a"},), False),
    (("a", "b"), ({"a", "b"},), True),
    (("a", "b"), ({"a"},), False),
)


def gadget_instance(tracer, name: str, universe, sets, splittable: bool) -> Instance:
    inst = SetSplittingInstance(universe, tuple(frozenset(s) for s in sets))
    n1, n2, k = tracer.call("generators.reduction_five_leaves", reduction_five_leaves, inst)
    i1, i2 = n1.num_internal, n2.num_internal
    # n2 has k internal nodes and is a contraction of n1 iff splittable
    return Instance(
        name=name,
        mode="exact",
        texts=(net_text(n1), net_text(n2)),
        internal=(i1, i2),
        leaves=frozenset(n1.leaf_label.values()),
        delta=i1 - k if splittable else None,
        max_common=None if splittable else k - 1,
        mcnc=k - 1,
        expect_rc=0 if splittable else 1,
    )


def _small_wgt(tracer, rng: random.Random, internal: int):
    """A random WGT with exactly `internal` internal nodes."""
    while True:
        retics = rng.randint(0, min(2, (internal - 1) // 2))
        tree_internal = internal - 2 * retics  # each reticulation adds two
        leaves = rng.randint(tree_internal + 1, 2 * tree_internal + 1)
        if retics == 2 and leaves < 5:
            continue  # random_wgt mostly fails to place two cycles on so few leaves
        n = _random_wgt(tracer, rng, leaves, retics)
        if n.num_internal == internal:
            return n


def oracle_small(tracer, rng: random.Random, tiny: bool) -> list[Instance]:
    """Pairs with at most 10 internal nodes for the exhaustive oracle:
    contraction-perturbed copies (delta = k), independent pairs (delta from
    the DP), and the hand-checked Set Splitting gadgets. The first network's
    internal-node count, which sets the oracle's search space, cycles
    through 3..10 with the instance index."""
    count = 6 if tiny else 72
    out = []
    for i in range(count):
        n = _small_wgt(tracer, rng, 3 + i % 8)
        if i % 3:
            out.append(_perturbed_instance(tracer, rng, f"small{i}", n, 1 + i % 3, mode="exact"))
            continue
        leaves = len(n.leaf_label)
        while True:
            m = _random_wgt(tracer, rng, leaves, rng.randint(0, 2))
            if m.num_internal <= 10:
                break
        delta = tracer.call("mcc_dp.solve", solve, n, m)[0]
        out.append(
            Instance(
                name=f"small{i}",
                mode="exact",
                texts=(net_text(n), net_text(m)),
                internal=(n.num_internal, m.num_internal),
                leaves=frozenset(n.leaf_label.values()),
                delta=delta,
            )
        )
    for j, (universe, sets, splittable) in enumerate(GADGETS):
        out.append(gadget_instance(tracer, f"gadget{j}", universe, sets, splittable))
    return out
