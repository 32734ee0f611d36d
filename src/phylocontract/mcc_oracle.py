"""Reference solvers: exhaustive maximum common contraction, tree fast path.

These are oracles for testing and small instances. `exact_mcc` enumerates
every partition of the internal nodes of the first network into weakly
connected parts, quotients, and keeps the largest quotient that is also a
contraction of the second network. `is_contraction` decides the single-pair
question by backtracking over part assignments.

`is_contraction` is one preparation of its first network (`_prepare`),
one image of its second (`_image`, what the search reads of it) and one
search (`_search`), a backtracking on one explicit stack. Partitions are
enumerated as integer masks over the internal nodes in sorted order
(`_partition_masks`), also on one explicit stack; `connected_partitions`
decodes them into frozensets.

`exact_mcc` prepares the second network once and prunes the enumeration:
below each subset reached it drops the partitions that cannot have as many
parts as the best so far, and those the search would refuse before its
first step: more parts than the second network has internal nodes, or a
part holding some but not all of a group of nodes that must share a part
(`_splits`). A budget counts the subsets the pruned enumeration reaches and
each search's steps. A surviving partition's quotient is tested on the
masks (`_mask_images`): it is invalid exactly when its parts' edges close a
directed cycle, and otherwise the search reads its image, so the quotient
is built only when an assignment reaches `validate_witness`. Ties are
broken on the masks (`_before`). The results are those of quotienting and
searching every partition. No function here recurses. `tree_mcc` finds
each node's minimal shared clade in one top-down pass. Both solvers, like
`solve`, return through `edit_ops.common_contraction`, which quotients the
first network by the witness parts, checks both witnesses and gives delta.
"""

from __future__ import annotations

from typing import Callable, Collection, Mapping, NamedTuple, Sequence

from .edit_ops import WitnessStructure, common_contraction, quotient, validate_witness
from .errors import (
    BudgetExhausted,
    Degree2Node,
    LeafSetMismatch,
    NotATree,
    SelfCheckFailed,
    SizeCapExceeded,
)
from .galled import has_degree2_node
from .network_core import Network, NodeId, _mask_nodes, topological_order

__all__ = ["is_contraction", "exact_mcc", "tree_mcc", "connected_partitions"]


def _node_bits(n: Network) -> dict[NodeId, int]:
    """Each internal node's bit: bit i is the i-th node of I(n) in sorted
    order, so a mask's lowest bit is its least node."""
    return {u: 1 << i for i, u in enumerate(sorted(n.internal_nodes()))}


def _node_masks(n: Network) -> tuple[list[NodeId], dict[int, int]]:
    """I(n) in sorted order and each node's bit mapped to the mask of its
    internal neighbours."""
    bit = _node_bits(n)
    nbr = dict.fromkeys(bit.values(), 0)
    for u, v in n.edges():
        if u in bit and v in bit:
            nbr[bit[u]] |= bit[v]
            nbr[bit[v]] |= bit[u]
    return list(bit), nbr


def _partition_masks(nbr: dict[int, int], budget: int | None, prune=None):
    """Each partition of the nodes in `nbr` into connected parts, exactly
    once, as a tuple of part masks.

    One level per part: its seed is the lowest node left, and a depth-first
    search over frames (sub, pool, rest, banned) grows the seed into every
    connected subset of the nodes left. A frame tries the nodes of `pool` in
    ascending order, `rest` being those not yet tried; a node tried at some
    frame stays banned in the branches of its later siblings, otherwise a
    set could be re-reached around a cycle and emitted twice. Each subset
    costs one step against `budget`, taken when it is reached.

    `prune(parts, left)`, when given, is asked at each subset reached, with
    the parts so far (the subset last) and the mask of the nodes left. It
    answers 0 to go on, 1 to drop every partition in which the subset stays
    the last part as it is, and 2 to drop those that grow it as well. A
    dropped subset is never reached, so it costs no step.
    """
    steps = 0
    remaining = sum(nbr)  # every node's bit
    levels: list[tuple[int, list[list[int]]]] = []  # (nodes left, frames)
    parts: list[int] = []
    cut = 0  # prune's answer for the subset last reached
    while True:
        if remaining and not cut:
            # A new level, seeded by the lowest node left.
            seed = remaining & -remaining
            pool = nbr[seed] & remaining
            levels.append((remaining, [[seed, pool, pool, 0]]))
            parts.append(seed)
            remaining ^= seed
        else:
            if not (remaining or cut):
                yield tuple(parts)
            # Grow the deepest level's next subset; drop the levels that have none.
            while True:
                if not levels:
                    return
                left, frames = levels[-1]
                frame = frames[-1]
                sub, pool, rest, banned = frame
                if rest:
                    break
                frames.pop()
                if not frames:
                    levels.pop()
                    parts.pop()
            v = rest & -rest
            frame[2] = rest ^ v
            dropped = banned | (pool ^ rest)
            grown = sub | v
            grown_pool = (pool | (nbr[v] & left)) & ~(grown | dropped)
            frames.append([grown, grown_pool, grown_pool, dropped])
            parts[-1] = grown
            remaining = left & ~grown
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExhausted(f"partition enumeration exceeded {budget} steps")
        if prune is not None:
            cut = prune(parts, remaining)
            if cut == 2:
                levels[-1][1][-1][2] = 0  # the subset's frame grows it no further


def connected_partitions(n: Network, budget: int | None = None):
    """All partitions of I(n) into weakly connected parts, each exactly once.

    Parts are discovered in order of their minimum node, so the emitted
    sequence is deterministic. `budget` caps enumeration steps, one per
    connected subset reached.
    """
    nodes, nbr = _node_masks(n)
    frozen: dict[int, frozenset[NodeId]] = {}
    for parts in _partition_masks(nbr, budget):
        for p in parts:
            if p not in frozen:
                frozen[p] = frozenset(_mask_nodes(nodes, p))
        yield [frozen[p] for p in parts]


class _Target(NamedTuple):
    """The half of `is_contraction` that depends on n alone: n, its internal
    nodes in topological order, their clades and the positions of their
    parents in that order, and each leaf's parent by label."""

    n: Network
    internal: list[NodeId]
    clades: list[int]
    parents: list[tuple[int, ...]]
    leaf_parent: dict[str, NodeId]


def _prepare(n: Network) -> _Target:
    internal = [u for u in topological_order(n) if u not in n.leaf_label]
    at = {u: i for i, u in enumerate(internal)}
    d = n.clades()
    return _Target(
        n,
        internal,
        [d[u] for u in internal],
        [tuple(at[p] for p in n.pred[u]) for u in internal],
        {lab: n.pred[u][0] for u, lab in n.leaf_label.items()},
    )


class _Image(NamedTuple):
    """What `_search` reads of a candidate contraction m: its internal
    nodes, in the order its witness lists them, each one's clade, its
    internal edges, its root, each leaf's parent by label, and a function
    that builds m for `validate_witness`."""

    internal: Collection[NodeId]
    clades: Mapping[NodeId, int] | Sequence[int]
    edges: set[tuple[NodeId, NodeId]]
    root: NodeId
    leaf_parent: dict[str, NodeId]
    network: Callable[[], Network]


def _image(m: Network) -> _Image:
    internal = set(m.internal_nodes())
    return _Image(
        internal,
        m.clades(),
        {(u, v) for u, v in m.edges() if u in internal and v in internal},
        m.root,
        {lab: m.pred[u][0] for u, lab in m.leaf_label.items()},
        lambda: m,
    )


def _mask_images(n1: Network):
    """`image(parts)`: the `_Image` of `quotient(n1, parts)` for a partition
    of I(n1) given as part masks over `_node_bits(n1)`, read off the masks;
    None where that quotient is not a valid network.

    Part i is node i of the quotient. A quotient by a partition of I(n1)
    keeps every leaf under one parent; each part has an out-edge, left by
    its topologically last node, and each part without n1's root an
    in-edge, entering its first. So it is invalid exactly when the parts'
    edges close a directed cycle, which one Kahn pass over the parts
    decides. Its order gives the clades: a part reaches the leaves its
    nodes reach in n1 and those the parts below it reach. The quotient
    itself is built only when `network` is called.
    """
    nodes = n1.internal_nodes()  # sorted, as the bits are
    at = {u: i for i, u in enumerate(nodes)}
    d = n1.clades()
    clade = [d[u] for u in nodes]
    edges = [(at[u], at[v]) for u, v in n1.edges() if u in at and v in at]
    root = at[n1.root]
    leaves = [(at[n1.pred[x][0]], n1.leaf_label[x]) for x in sorted(n1.leaf_label)]

    def image(parts: tuple[int, ...]) -> _Image | None:
        k = len(parts)
        part_of = [0] * len(nodes)
        base = [0] * k
        for i, p in enumerate(parts):
            b = 0
            while p:
                low = p & -p
                x = low.bit_length() - 1
                part_of[x] = i
                b |= clade[x]
                p ^= low
            base[i] = b
        part_edges = {
            (pu, pv) for u, v in edges if (pu := part_of[u]) != (pv := part_of[v])
        }
        below: list[list[int]] = [[] for _ in range(k)]
        above = [0] * k
        for pu, pv in part_edges:
            below[pu].append(pv)
            above[pv] += 1
        order = [i for i in range(k) if not above[i]]
        for pu in order:  # Kahn: `order` grows while it is walked
            for pv in below[pu]:
                above[pv] -= 1
                if not above[pv]:
                    order.append(pv)
        if len(order) < k:
            return None
        for pu in reversed(order):
            for pv in below[pu]:
                base[pu] |= base[pv]
        return _Image(
            range(k),
            base,
            part_edges,
            part_of[root],
            {lab: part_of[x] for x, lab in leaves},
            lambda: quotient(n1, [_mask_nodes(nodes, p) for p in parts]),
        )

    return image


def _search(
    target: _Target, m: _Image, budget: int | None = None
) -> WitnessStructure | None:
    """`is_contraction` of a prepared n onto the image of m."""
    n, internal_n = target.n, target.internal
    internal_m = m.internal
    if len(internal_n) < len(internal_m):
        return None

    dm, m_edges = m.clades, m.edges
    forced: dict[NodeId, NodeId] = {n.root: m.root}
    for lbl, pm in m.leaf_parent.items():
        pn = target.leaf_parent[lbl]
        if pn in forced and forced[pn] != pm:
            return None
        forced[pn] = pm

    # Level i assigns internal_n[i]; its parents sit at earlier levels.
    every = tuple(sorted(internal_m))
    cands = [(forced[x],) if x in forced else every for x in internal_n]
    dn, parents = target.clades, target.parents
    k = len(internal_n)
    chosen: list[NodeId] = [0] * k
    cursor = [0] * k
    steps = 0
    network = None  # m, built when an assignment is complete
    i = 0
    while i >= 0:
        if i == k:
            parts: dict[NodeId, set[NodeId]] = {u: set() for u in internal_m}
            for x, part in zip(internal_n, chosen):
                parts[part].add(x)
            w = WitnessStructure({u: frozenset(p) for u, p in parts.items()})
            if network is None:
                network = m.network()
            if validate_witness(n, network, w)[0]:
                return w
            i -= 1
            continue
        j = cursor[i]
        if j == len(cands[i]):
            cursor[i] = 0
            i -= 1
            continue
        cursor[i] = j + 1
        part = cands[i][j]
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExhausted(f"assignment search exceeded {budget} steps")
        if dn[i] & ~dm[part]:
            continue
        if all(
            q == part or (q, part) in m_edges for q in (chosen[p] for p in parents[i])
        ):
            chosen[i] = part
            i += 1
    return None


def is_contraction(
    n: Network, m: Network, budget: int | None = None
) -> WitnessStructure | None:
    """Witness that m is a contraction of n, or None.

    Backtracking assignment of I(n) to I(m) in topological order: leaf
    parents are forced by label, the root maps to the root, clades must
    nest, and every in-neighbor, assigned at an earlier level, must land on
    the same part or along an edge of m.
    """
    if n.leaf_universe != m.leaf_universe:
        raise LeafSetMismatch(f"{n.leaf_universe} vs {m.leaf_universe}")
    return _search(_prepare(n), _image(m), budget)


def _splits(n1: Network, target: _Target):
    """`splits(part)`, for a part mask over `_node_bits(n1)`: does the part
    hold some but not all of a group of n1 nodes that a valid quotient
    accepted by `_search(target, ...)` keeps in one part?

    A valid quotient's root is the part of n1's root and each leaf hangs
    from the part of its n1 parent, so the map the search forces from the
    target onto the quotient is a function iff n1's root and the n1 parents
    of the leaves below the target's root share a part, and so do the n1
    parents of any two leaves that share a parent in the target.
    """
    bit = _node_bits(n1)
    by_target: dict[NodeId, int] = {target.n.root: bit[n1.root]}
    for leaf, lab in n1.leaf_label.items():
        p = target.leaf_parent[lab]
        by_target[p] = by_target.get(p, 0) | bit[n1.pred[leaf][0]]
    groups = [g for g in by_target.values() if g & (g - 1)]

    def splits(part: int) -> bool:
        for g in groups:
            if g & part and g & ~part:
                return True
        return False

    return splits


def _before(parts: tuple[int, ...], other: tuple[int, ...]) -> bool:
    """Does partition `parts` come before `other`, which has as many parts,
    when each is read as the sorted tuple of its parts' sorted node tuples?

    Both list their part masks in order of least node. At the first parts
    that differ, let x be the lowest node in only one of them: the part
    that holds x comes first, unless the other holds nothing above x and so
    is a prefix of it.
    """
    for a, b in zip(parts, other):
        if a != b:
            x = (a ^ b) & -(a ^ b)
            return b > x if a & x else a < x
    return False


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
    for label, count in (("first", n1.num_internal), ("second", n2.num_internal)):
        if count > max_internal:
            raise SizeCapExceeded(
                f"{label} network has {count} internal nodes (cap {max_internal})"
            )

    target = _prepare(n2)
    nodes, nbr = _node_masks(n1)
    image = _mask_images(n1)
    splits = _splits(n1, target)
    limit = len(target.internal)
    best = None  # (part masks, w2)
    most = 0  # the number of parts of the best

    def prune(parts: list[int], left: int) -> int:
        count = len(parts)
        if count + left.bit_count() < most:
            # Fewer parts than the best, even with every node left a part
            # of its own; growing the subset leaves fewer still.
            return 2
        # A part more would outnumber I(n2), or this one splits a group.
        if left and count >= limit or splits(parts[-1]):
            return 1
        return 0

    for masks in _partition_masks(nbr, budget, prune):
        # As many parts as the best but not before it cannot win.
        if best is not None and len(masks) == most and not _before(masks, best[0]):
            continue
        m = image(masks)
        if m is None:
            continue
        w2 = _search(target, m, budget)
        if w2 is None:
            continue
        best, most = (masks, w2), len(masks)

    if best is None:
        # The one-part partition quotients to a star, a contraction of n2.
        raise SelfCheckFailed("no partition of the first network contracts the second")
    masks, w2 = best
    canon = [_mask_nodes(nodes, p) for p in masks]
    return common_contraction(n1, n2, canon, [w2.parts[g] for g in range(len(canon))])


def _shared_hosts(
    t: Network, d: dict[NodeId, int], index: dict[int, int]
) -> dict[NodeId, int]:
    """One top-down pass over tree t: the index of every node's nearest
    ancestor-or-self whose clade is shared. The shared family is laminar and
    t's clades grow towards the root, so that is the minimal shared
    superset."""
    host = {t.root: index[d[t.root]]}
    stack = [t.root]
    while stack:
        u = stack.pop()
        for v in t.succ[u]:
            host[v] = index.get(d[v], host[u])
            stack.append(v)
    return host


def tree_mcc(
    t1: Network, t2: Network
) -> tuple[int, Network, WitnessStructure, WitnessStructure]:
    """Maximum common contraction of two trees via shared clades.

    The common contraction is the tree over the clades present in both
    inputs, the quotient of t1 by the parts its nodes' minimal shared clades
    define; delta counts the internal nodes outside the shared family.
    Inputs must be trees without internal degree-2 nodes. The root is exempt
    from that rule, so a root with a single internal child carries the full
    clade twice; when both roots do, the common contraction keeps both.
    """
    for t in (t1, t2):
        if t.reticulations():
            raise NotATree(f"reticulations present: {t.reticulations()}")
        if has_degree2_node(t):
            raise Degree2Node(repr(t))
    if t1.leaf_universe != t2.leaf_universe:
        raise LeafSetMismatch(f"{t1.leaf_universe} vs {t2.leaf_universe}")

    d1, d2 = t1.clades(), t2.clades()
    internal1 = {d1[u] for u in t1.internal_nodes()}
    internal2 = {d2[u] for u in t2.internal_nodes()}
    shared = sorted(internal1 & internal2, key=lambda b: (bin(b).count("1"), b))

    index = {bits: i for i, bits in enumerate(shared)}
    k = len(shared)
    host1 = _shared_hosts(t1, d1, index)
    host2 = _shared_hosts(t2, d2, index)
    if all(len(t.succ[t.root]) == 1 and t.num_internal > 1 for t in (t1, t2)):
        # both roots have one internal child: a fresh root part above it
        host1[t1.root] = host2[t2.root] = k
        k += 1

    parts1, parts2 = [set() for _ in range(k)], [set() for _ in range(k)]
    for t, host, parts in ((t1, host1, parts1), (t2, host2, parts2)):
        for u in t.internal_nodes():
            parts[host[u]].add(u)
    return common_contraction(t1, t2, parts1, parts2)
