"""Reference solvers: exhaustive maximum common contraction, tree fast path.

These are oracles for testing and small instances. `exact_mcc` enumerates
every partition of the internal nodes of the first network into weakly
connected parts, quotients, and keeps the largest quotient that is also a
contraction of the second network. `is_contraction` decides the single-pair
question by backtracking over part assignments.
"""

from __future__ import annotations

from .edit_ops import WitnessStructure, check_witness, quotient, validate_witness
from .errors import (
    BudgetExhausted,
    Degree2Node,
    LeafSetMismatch,
    NotATree,
    PhyloError,
    SizeCapExceeded,
)
from .network_core import Network, NodeId, topological_order

__all__ = ["is_contraction", "exact_mcc", "tree_mcc", "connected_partitions"]


def _internal_neighbors(n: Network) -> dict[NodeId, set[NodeId]]:
    internal = set(n.internal_nodes())
    nbrs: dict[NodeId, set[NodeId]] = {u: set() for u in internal}
    for u, v in n.edges():
        if u in internal and v in internal:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs


def _connected_subsets(nbrs, seed, allowed, tick):
    """Each connected subset of `allowed` containing `seed`, exactly once.

    A node skipped at some level stays excluded in the entire remaining
    branch; the ban set travels down the recursion, otherwise a set can be
    re-reached around a cycle and emitted twice."""

    def rec(sub: frozenset, pool: frozenset, banned: frozenset):
        tick()
        yield sub
        dropped: set[NodeId] = set(banned)
        for v in sorted(pool):
            grown = sub | {v}
            new_pool = (pool | (nbrs[v] & allowed)) - grown - dropped
            yield from rec(grown, frozenset(new_pool), frozenset(dropped))
            dropped.add(v)

    start = frozenset({seed})
    yield from rec(start, frozenset(nbrs[seed] & allowed), frozenset())


def connected_partitions(n: Network, budget: int | None = None):
    """All partitions of I(n) into weakly connected parts, each exactly once.

    Parts are discovered in order of their minimum node, so the emitted
    sequence is deterministic. `budget` caps enumeration steps.
    """
    nbrs = _internal_neighbors(n)
    steps = 0

    def tick():
        nonlocal steps
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExhausted(f"partition enumeration exceeded {budget} steps")

    def rec(remaining: frozenset):
        if not remaining:
            yield []
            return
        seed = min(remaining)
        allowed = remaining - {seed}
        for part in _connected_subsets(nbrs, seed, allowed, tick):
            rest = remaining - part
            for tail in rec(rest):
                yield [part, *tail]

    yield from rec(frozenset(nbrs))


def is_contraction(
    n: Network, m: Network, budget: int | None = None
) -> WitnessStructure | None:
    """Witness that m is a contraction of n, or None.

    Backtracking assignment of I(n) to I(m) in topological order: leaf
    parents are forced by label, the root maps to the root, clades must
    nest, and every already-assigned in-neighbor must land on the same part
    or along an edge of m.
    """
    if n.leaf_universe != m.leaf_universe:
        raise LeafSetMismatch(f"{n.leaf_universe} vs {m.leaf_universe}")
    internal_n = [u for u in topological_order(n) if u not in n.leaf_label]
    internal_m = set(m.internal_nodes())
    if len(internal_n) < len(internal_m):
        return None

    dn, dm = n.clades(), m.clades()
    m_edges = {
        (u, v) for u, v in m.edges() if u in internal_m and v in internal_m
    }
    required = {v: m.pred[v][0] for v in m.leaf_label}  # by label below

    forced: dict[NodeId, NodeId] = {n.root: m.root}
    for lbl, leaf_m in ((m.leaf_label[v], v) for v in m.leaf_label):
        leaf_n = n.leaf_by_label()[lbl]
        pn, pm = n.pred[leaf_n][0], required[leaf_m]
        if pn in forced and forced[pn] != pm:
            return None
        forced[pn] = pm

    assign: dict[NodeId, NodeId] = {}
    steps = 0

    def candidates(x: NodeId):
        if x in forced:
            return (forced[x],)
        return tuple(sorted(internal_m))

    def ok(x: NodeId, part: NodeId) -> bool:
        if not (dn[x] & ~dm[part] == 0):
            return False
        for p in n.pred[x]:
            if p in assign:
                q = assign[p]
                if q != part and (q, part) not in m_edges:
                    return False
        return True

    def rec(i: int) -> WitnessStructure | None:
        nonlocal steps
        if i == len(internal_n):
            parts: dict[NodeId, set[NodeId]] = {u: set() for u in internal_m}
            for x, part in assign.items():
                parts[part].add(x)
            w = WitnessStructure(
                {u: frozenset(p) for u, p in parts.items()}
            )
            valid, _ = validate_witness(n, m, w)
            return w if valid else None
        x = internal_n[i]
        for part in candidates(x):
            steps += 1
            if budget is not None and steps > budget:
                raise BudgetExhausted(f"assignment search exceeded {budget} steps")
            if ok(x, part):
                assign[x] = part
                got = rec(i + 1)
                if got is not None:
                    return got
                del assign[x]
        return None

    return rec(0)


def exact_mcc(
    n1: Network,
    n2: Network,
    max_internal: int = 10,
    budget: int | None = None,
) -> tuple[int, Network, WitnessStructure, WitnessStructure]:
    """Maximum common contraction by exhaustive search.

    Returns (delta, m, witness1, witness2) with
    delta = |I(n1)| + |I(n2)| - 2 |I(m)|. Partitions of I(n1) are tried,
    largest surviving quotient wins; ties break to the lexicographically
    least partition. Inputs above `max_internal` internal nodes are refused.
    """
    if n1.leaf_universe != n2.leaf_universe:
        raise LeafSetMismatch(f"{n1.leaf_universe} vs {n2.leaf_universe}")
    i1, i2 = n1.num_internal, n2.num_internal
    for label, count in (("first", i1), ("second", i2)):
        if count > max_internal:
            raise SizeCapExceeded(
                f"{label} network has {count} internal nodes (cap {max_internal})"
            )

    best = None  # (-(num parts), canon, m, w1, w2)
    for parts in connected_partitions(n1, budget=budget):
        canon = tuple(sorted(tuple(sorted(p)) for p in parts))
        key = (-len(parts), canon)
        if best is not None and key >= best[0]:
            continue
        try:
            m, part_of = quotient(n1, [set(p) for p in parts])
        except PhyloError:
            continue
        w2 = is_contraction(n2, m, budget=budget)
        if w2 is None:
            continue
        groups: dict[NodeId, set[NodeId]] = {}
        for x, g in part_of.items():
            groups.setdefault(g, set()).add(x)
        w1 = WitnessStructure({g: frozenset(s) for g, s in groups.items()})
        check_witness(n1, m, w1)
        best = (key, m, w1, w2)

    assert best is not None  # the all-in-one-part partition always survives
    _, m, w1, w2 = best
    delta = i1 + i2 - 2 * m.num_internal
    return delta, m, w1, w2


def tree_mcc(
    t1: Network, t2: Network
) -> tuple[int, Network, WitnessStructure, WitnessStructure]:
    """Maximum common contraction of two trees via shared clades.

    The common contraction is the tree over the clades present in both
    inputs; delta counts the internal nodes outside the shared family.
    Inputs must be trees without internal degree-2 nodes.
    """
    for t in (t1, t2):
        if t.reticulations():
            raise NotATree(f"reticulations present: {t.reticulations()}")
        for u in t.internal_nodes():
            if u != t.root and len(t.pred[u]) == 1 and len(t.succ[u]) == 1:
                raise Degree2Node(f"node {u}")
    if t1.leaf_universe != t2.leaf_universe:
        raise LeafSetMismatch(f"{t1.leaf_universe} vs {t2.leaf_universe}")

    d1, d2 = t1.clades(), t2.clades()
    internal1 = {d1[u] for u in t1.internal_nodes()}
    internal2 = {d2[u] for u in t2.internal_nodes()}
    shared = sorted(internal1 & internal2, key=lambda b: (bin(b).count("1"), b))

    index = {bits: i for i, bits in enumerate(shared)}
    k = len(shared)
    universe = t1.leaf_universe
    succ: dict[NodeId, set[NodeId]] = {i: set() for i in range(k)}
    for i, bits in enumerate(shared):
        supersets = [c for c in shared if bits != c and bits & ~c == 0]
        if supersets:
            parent = min(supersets, key=lambda b: (bin(b).count("1"), b))
            succ[index[parent]].add(i)
    leaf_label: dict[NodeId, str] = {}
    for j, lbl in enumerate(universe):
        bit = 1 << j
        host = min(
            (c for c in shared if c & bit), key=lambda b: (bin(b).count("1"), b)
        )
        leaf = k + j
        succ[leaf] = set()
        succ[index[host]].add(leaf)
        leaf_label[leaf] = lbl
    # The full leaf set is shared by both roots and sorts last.
    m = Network(succ, leaf_label, root=k - 1)

    def witness(t: Network, d: dict[NodeId, int]) -> WitnessStructure:
        parts: dict[NodeId, set[NodeId]] = {i: set() for i in range(k)}
        for u in t.internal_nodes():
            host = min(
                (c for c in shared if d[u] & ~c == 0),
                key=lambda b: (bin(b).count("1"), b),
            )
            parts[index[host]].add(u)
        return WitnessStructure({i: frozenset(p) for i, p in parts.items()})

    w1, w2 = witness(t1, d1), witness(t2, d2)
    check_witness(t1, m, w1)
    check_witness(t2, m, w2)
    delta = t1.num_internal + t2.num_internal - 2 * k
    return delta, m, w1, w2
