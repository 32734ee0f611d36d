"""Reference solvers: exhaustive maximum common contraction, tree fast path.

These are oracles for testing and small instances. `exact_mcc` enumerates
every partition of the internal nodes of the first network into weakly
connected parts, quotients, and keeps the largest quotient that is also a
contraction of the second network. `is_contraction` decides the single-pair
question by backtracking over part assignments.

`is_contraction` is one preparation of its first network (`_prepare`) and
one search (`_search`). `exact_mcc` prepares the second network once and
skips, before building its quotient, every partition the search would
refuse before its first step (`_prefilter`): too many parts, or leaves that
share a parent in the second network but whose parents in the first lie in
different parts (the second root maps to the part of the first). The
enumeration, the tie-break, the results and every `--budget` count are
those of quotienting and searching each partition. `tree_mcc` finds each node's minimal shared clade in one top-down pass.
"""

from __future__ import annotations

from typing import NamedTuple

from .edit_ops import WitnessStructure, check_witness, quotient, validate_witness
from .errors import (
    BudgetExhausted,
    Degree2Node,
    LeafSetMismatch,
    NotATree,
    PhyloError,
    SelfCheckFailed,
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


class _Target(NamedTuple):
    """The half of `is_contraction` that depends on n alone: n, its internal
    nodes in topological order, its clades and each leaf's parent by label."""

    n: Network
    internal: list[NodeId]
    clades: dict[NodeId, int]
    leaf_parent: dict[str, NodeId]


def _prepare(n: Network) -> _Target:
    return _Target(
        n,
        [u for u in topological_order(n) if u not in n.leaf_label],
        n.clades(),
        {lab: n.pred[u][0] for u, lab in n.leaf_label.items()},
    )


def _search(
    target: _Target, m: Network, budget: int | None = None
) -> WitnessStructure | None:
    """`is_contraction` against a prepared n."""
    n, internal_n, dn = target.n, target.internal, target.clades
    if n.leaf_universe != m.leaf_universe:
        raise LeafSetMismatch(f"{n.leaf_universe} vs {m.leaf_universe}")
    internal_m = set(m.internal_nodes())
    if len(internal_n) < len(internal_m):
        return None

    dm = m.clades()
    m_edges = {
        (u, v) for u, v in m.edges() if u in internal_m and v in internal_m
    }

    forced: dict[NodeId, NodeId] = {n.root: m.root}
    for leaf_m, lbl in m.leaf_label.items():
        pn, pm = target.leaf_parent[lbl], m.pred[leaf_m][0]
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


def is_contraction(
    n: Network, m: Network, budget: int | None = None
) -> WitnessStructure | None:
    """Witness that m is a contraction of n, or None.

    Backtracking assignment of I(n) to I(m) in topological order: leaf
    parents are forced by label, the root maps to the root, clades must
    nest, and every already-assigned in-neighbor must land on the same part
    or along an edge of m.
    """
    return _search(_prepare(n), m, budget)


def _prefilter(n1: Network, target: _Target):
    """Predicate on partitions of I(n1): does `_search(target, ...)` refuse
    the partition's quotient before its first step?

    It does when the quotient has more internal nodes than the target, or
    when the map it forces from the target onto the quotient is not a
    function. A valid quotient's root is the part of n1's root and each leaf
    hangs from the part of its n1 parent, so the map is a function iff n1's
    root and the n1 parents of the leaves below the target's root share a
    part, and so do the n1 parents of any two leaves that share a parent in
    the target. On partitions whose quotient is invalid the answer does not
    matter: `exact_mcc` skips those either way.
    """
    by_target: dict[NodeId, set[NodeId]] = {target.n.root: {n1.root}}
    for leaf, lab in n1.leaf_label.items():
        by_target.setdefault(target.leaf_parent[lab], set()).add(n1.pred[leaf][0])
    groups = [frozenset(g) for g in by_target.values() if len(g) > 1]
    limit = len(target.internal)

    def doomed(parts) -> bool:
        if len(parts) > limit:
            return True
        return any(g & part and not g <= part for g in groups for part in parts)

    return doomed


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

    target = _prepare(n2)
    doomed = _prefilter(n1, target)
    best = None  # (-(num parts), canon, m, w1, w2)
    for parts in connected_partitions(n1, budget=budget):
        if doomed(parts):
            continue
        canon = tuple(sorted(tuple(sorted(p)) for p in parts))
        key = (-len(parts), canon)
        if best is not None and key >= best[0]:
            continue
        try:
            m, _ = quotient(n1, [set(p) for p in parts])
        except PhyloError:
            continue
        w2 = _search(target, m, budget)
        if w2 is None:
            continue
        # quotient numbers the parts of m by their index in parts
        w1 = WitnessStructure({g: frozenset(p) for g, p in enumerate(parts)})
        check_witness(n1, m, w1)
        best = (key, m, w1, w2)

    if best is None:
        # The one-part partition quotients to a star, a contraction of n2.
        raise SelfCheckFailed("no partition of the first network contracts the second")
    _, m, w1, w2 = best
    delta = i1 + i2 - 2 * m.num_internal
    return delta, m, w1, w2


def _shared_hosts(
    t: Network, d: dict[NodeId, int], index: dict[int, int]
) -> tuple[dict[NodeId, int], dict[int, int]]:
    """One top-down pass over tree t. Returns, for every node, the index of
    its nearest ancestor-or-self whose clade is shared, and, for every shared
    clade but the root's, the index of the next shared clade above it. The
    shared family is laminar and t's clades grow towards the root, so the
    nearest shared ancestor-or-self is the minimal shared superset."""
    host = {t.root: index[d[t.root]]}
    above: dict[int, int] = {}
    stack = [t.root]
    while stack:
        u = stack.pop()
        for v in t.succ[u]:
            i = index.get(d[v], host[u])
            if i != host[u]:
                above[i] = host[u]
            host[v] = i
            stack.append(v)
    return host, above


def tree_mcc(
    t1: Network, t2: Network
) -> tuple[int, Network, WitnessStructure, WitnessStructure]:
    """Maximum common contraction of two trees via shared clades.

    The common contraction is the tree over the clades present in both
    inputs; delta counts the internal nodes outside the shared family.
    Inputs must be trees without internal degree-2 nodes. The root is exempt
    from that rule, so a root with a single internal child carries the full
    clade twice; when both roots do, the common contraction keeps both.
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
    host1, above = _shared_hosts(t1, d1, index)
    host2, _ = _shared_hosts(t2, d2, index)
    if all(len(t.succ[t.root]) == 1 and t.num_internal > 1 for t in (t1, t2)):
        # both roots have one internal child: a fresh root part above it
        host1[t1.root] = host2[t2.root] = k
        above[k - 1] = k
        k += 1
    succ: dict[NodeId, set[NodeId]] = {i: set() for i in range(k)}
    for i, parent in above.items():
        succ[parent].add(i)
    leaf_label: dict[NodeId, str] = {}
    by_label = t1.leaf_by_label()
    for j, lbl in enumerate(t1.leaf_universe):
        leaf = k + j
        succ[leaf] = set()
        succ[host1[by_label[lbl]]].add(leaf)
        leaf_label[leaf] = lbl
    # The root's part is the last: the full leaf set sorts last, a fresh root after it.
    m = Network(succ, leaf_label, root=k - 1)

    def witness(t: Network, host: dict[NodeId, int]) -> WitnessStructure:
        parts: dict[NodeId, set[NodeId]] = {i: set() for i in range(k)}
        for u in t.internal_nodes():
            parts[host[u]].add(u)
        return WitnessStructure({i: frozenset(p) for i, p in parts.items()})

    w1, w2 = witness(t1, host1), witness(t2, host2)
    check_witness(t1, m, w1)
    check_witness(t2, m, w2)
    delta = t1.num_internal + t2.num_internal - 2 * k
    return delta, m, w1, w2
