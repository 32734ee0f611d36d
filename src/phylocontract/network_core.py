"""Rooted leaf-labeled DAGs and their basic queries.

A network is a DAG with exactly one in-degree-0 node (the root) and whose
out-degree-0 nodes (the leaves) each have in-degree exactly 1 and carry
pairwise distinct labels. Edges have set semantics: no parallel edges.
Internal nodes of in- and out-degree 1 are allowed here; algorithms that
cannot handle them reject networks explicitly.
"""

from __future__ import annotations

import heapq
from itertools import compress
from typing import Collection, Iterable, Mapping

from .errors import (
    CyclicGraph,
    DuplicateLabel,
    LeafWithInDegreeNot1,
    MultipleRoots,
    NoRoot,
    SelfCheckFailed,
    UnlabeledLeaf,
)

NodeId = int


class Network:
    """Immutable rooted DAG with labeled leaves.

    Adjacency is stored as sorted tuples so that every traversal of the same
    network is deterministic. Only :func:`validate` and the raw
    `edit_ops.contract`, whose result may be invalid, call the constructor;
    every other network comes from one of them.
    """

    __slots__ = ("succ", "pred", "leaf_label", "root", "_universe", "_clades", "_order")

    def __init__(
        self,
        succ: Mapping[NodeId, Collection[NodeId]],
        leaf_label: Mapping[NodeId, str],
        root: NodeId | None,
    ):
        """Unchecked: `succ` must map every node of a valid network to its
        out-neighbors; its key order becomes the node order. `validate`
        passes root=None and sets the root once the graph is a DAG."""
        self.succ = {
            u: tuple(sorted(vs)) if len(vs) > 1 else tuple(vs) for u, vs in succ.items()
        }
        # tails visited in ascending order extend each in-tuple sorted
        pred: dict[NodeId, tuple[NodeId, ...]] = dict.fromkeys(self.succ, ())
        for u in sorted(self.succ):
            for v in self.succ[u]:
                pred[v] += (u,)
        self.pred = pred
        self.leaf_label = dict(leaf_label)
        self.root = root
        self._universe: tuple[str, ...] | None = None
        self._clades: dict[NodeId, int] | None = None
        self._order: tuple[NodeId, ...] | None = None

    # -- basic queries -------------------------------------------------------

    def nodes(self) -> list[NodeId]:
        return sorted(self.succ)

    def edges(self) -> list[tuple[NodeId, NodeId]]:
        return [(u, v) for u in sorted(self.succ) for v in self.succ[u]]

    def num_edges(self) -> int:
        return sum(len(vs) for vs in self.succ.values())

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return v in self.succ.get(u, ())

    def is_leaf(self, u: NodeId) -> bool:
        return u in self.leaf_label

    def leaves(self) -> list[NodeId]:
        return sorted(self.leaf_label)

    def internal_nodes(self) -> list[NodeId]:
        return [u for u in sorted(self.succ) if u not in self.leaf_label]

    @property
    def num_internal(self) -> int:
        return len(self.succ) - len(self.leaf_label)

    def reticulations(self) -> list[NodeId]:
        return sorted([u for u, ps in self.pred.items() if len(ps) >= 2])

    @property
    def leaf_universe(self) -> tuple[str, ...]:
        if self._universe is None:
            self._universe = tuple(sorted(self.leaf_label.values()))
        return self._universe

    def leaf_by_label(self) -> dict[str, NodeId]:
        return {lab: u for u, lab in self.leaf_label.items()}

    def fresh_id(self) -> NodeId:
        return max(self.succ) + 1

    # -- derived structure ---------------------------------------------------

    def clades(self) -> dict[NodeId, int]:
        """Bitmask of reachable leaf labels per node, over leaf_universe."""
        if self._clades is None:
            index = {lab: i for i, lab in enumerate(self.leaf_universe)}
            bits: dict[NodeId, int] = {}
            for u in reversed(topological_order(self)):
                if u in self.leaf_label:
                    bits[u] = 1 << index[self.leaf_label[u]]
                else:
                    b = 0
                    for v in self.succ[u]:
                        b |= bits[v]
                    bits[u] = b
            self._clades = bits
        return self._clades

    def depths(self) -> dict[NodeId, int]:
        """Shortest edge-distance from the root (isomorphism invariant)."""
        dist = {self.root: 0}
        frontier = [self.root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.succ[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def reaches(self, u: NodeId, v: NodeId) -> bool:
        """Is there a directed path (possibly empty) from u to v?"""
        if u == v:
            return True
        seen = {u}
        stack = [u]
        while stack:
            for w in self.succ[stack.pop()]:
                if w == v:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def to_dot(self) -> str:
        lines = ["digraph network {"]
        for u in self.nodes():
            if u in self.leaf_label:
                # DOT reads a backslash in a quoted string as an escape
                label = self.leaf_label[u].replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'  n{u} [label="{label}", shape=plaintext];')
            else:
                shape = "diamond" if len(self.pred[u]) >= 2 else "circle"
                lines.append(f'  n{u} [label="", shape={shape}];')
        for u, v in self.edges():
            lines.append(f"  n{u} -> n{v};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Network nodes={len(self.succ)} internal={self.num_internal} "
            f"leaves={len(self.leaf_label)} retics={len(self.reticulations())}>"
        )


def validate(
    edges: Iterable[tuple[NodeId, NodeId]],
    leaf_labels: Mapping[NodeId, str],
    nodes: Iterable[NodeId] = (),
) -> Network:
    """Check raw node/edge/label data and assemble a Network.

    `edges` may be read once and may repeat an edge; a node's key order
    comes from `nodes`, then the labeled nodes, then the edges.

    Raises CyclicGraph, MultipleRoots, NoRoot, UnlabeledLeaf, DuplicateLabel
    or LeafWithInDegreeNot1 on the first violated condition.
    """
    # out-neighbor sets, made at a node's first out-edge; () until then
    succ: dict[NodeId, Collection[NodeId]] = dict.fromkeys(nodes, ())
    for u in leaf_labels:
        succ.setdefault(u, ())
    for u, v in edges:
        if u == v:
            raise CyclicGraph(f"self-loop at node {u}")
        out = succ.get(u)
        if out:
            out.add(v)
        else:
            succ[u] = {v}
        if v not in succ:
            succ[v] = ()
    if not succ:
        raise NoRoot("empty node set")

    n = Network(succ, leaf_labels, root=None)
    topological_order(n)  # raises CyclicGraph
    roots = [u for u, ps in n.pred.items() if not ps]  # a non-empty DAG has one
    if len(roots) > 1:
        raise MultipleRoots(f"in-degree-0 nodes: {sorted(roots)}")
    n.root = roots[0]

    labels_seen: dict[str, NodeId] = {}
    for u, lab in leaf_labels.items():
        if n.succ[u]:
            raise UnlabeledLeaf(f"label {lab!r} attached to non-leaf node {u}")
        if lab in labels_seen:
            raise DuplicateLabel(f"label {lab!r} on nodes {labels_seen[lab]} and {u}")
        labels_seen[lab] = u
    for u, vs in n.succ.items():
        if not vs:
            if u not in leaf_labels:
                raise UnlabeledLeaf(f"sink node {u} has no label")
            if len(n.pred[u]) != 1:
                raise LeafWithInDegreeNot1(f"leaf {u} has in-degree {len(n.pred[u])}")
    return n


def is_acyclic(n: Network) -> bool:
    """Cycle check that works on raw (possibly invalid) networks."""
    try:
        topological_order(n)
    except CyclicGraph:
        return False
    return True


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _label_indices(bits: int) -> tuple[int, ...]:
    """Indices of a clade value's set bits, ascending. leaf_universe is
    sorted, so these tuples order clades like their sorted label tuples.
    One pass over the binary digits from the lowest set bit to the highest:
    linear in the value's width, not in its popcount times its width."""
    if not bits:
        return ()
    low = (bits & -bits).bit_length() - 1
    # flag i is 1 when index low + i is set
    flags = format(bits >> low, "b")[::-1].encode().translate(_DIGIT_FLAGS)
    return tuple(compress(range(low, low + len(flags)), flags))


def _mask_nodes(nodes: list[NodeId], mask: int) -> tuple[NodeId, ...]:
    """The nodes at the mask's set bits, in position order; one step per set
    bit, cheaper on the oracle's few-bit part masks than `_label_indices`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(nodes[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def topological_order(n: Network) -> list[NodeId]:
    """Deterministic topological order (smallest available NodeId first).

    Raises CyclicGraph on a directed cycle, which the unchecked
    `Network(...)` constructor lets through. The order is computed once per
    network; every call returns a fresh list, which the caller may change.
    """
    if n._order is not None:
        return list(n._order)
    succ, pred = n.succ, n.pred
    heap = [u for u, ps in pred.items() if not ps]
    heapq.heapify(heap)
    waiting: dict[NodeId, int] = {}  # unordered parents of reticulations
    order: list[NodeId] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in succ[u]:
            k = len(pred[v])
            if k > 1:
                k = waiting.get(v, k) - 1
                waiting[v] = k
                if k:
                    continue
            heapq.heappush(heap, v)
    if len(order) != len(n.succ):
        raise CyclicGraph("directed cycle detected")
    n._order = tuple(order)
    return order


def _internal_signatures(n: Network) -> dict[NodeId, tuple]:
    """Isomorphism-invariant signature of every internal node; a leaf's
    clade is its own label bit, so leaf children combine as clade bits."""
    d = n.clades()
    depth = n.depths()
    out = {}
    for u in n.internal_nodes():
        leaf_children = 0
        for v in n.succ[u]:
            if v in n.leaf_label:
                leaf_children |= d[v]
        out[u] = (len(n.pred[u]), len(n.succ[u]), d[u], depth[u], leaf_children)
    return out


def is_isomorphic(n1: Network, n2: Network, return_mapping: bool = False):
    """Leaf-label-preserving isomorphism test.

    Returns a boolean, or (boolean, mapping n1-node -> n2-node) when
    return_mapping is set.
    """
    fail = (False, None) if return_mapping else False
    if n1.leaf_universe != n2.leaf_universe:
        return fail
    if len(n1.succ) != len(n2.succ) or n1.num_edges() != n2.num_edges():
        return fail

    # Leaves are forced by their labels.
    by_label2 = n2.leaf_by_label()
    phi: dict[NodeId, NodeId] = {
        u: by_label2[lab] for u, lab in n1.leaf_label.items()
    }

    of1 = _internal_signatures(n1)
    sig1: dict[tuple, list[NodeId]] = {}
    for u, s in of1.items():
        sig1.setdefault(s, []).append(u)
    sig2: dict[tuple, list[NodeId]] = {}
    for u, s in _internal_signatures(n2).items():
        sig2.setdefault(s, []).append(u)
    if set(sig1) != set(sig2):
        return fail
    for s, us in sig1.items():
        if len(us) != len(sig2[s]):
            return fail

    # Assign rare signatures first to cut branching. Depth-first search with
    # an explicit cursor per level: tried[i] is the next candidate for order[i].
    order = sorted(of1, key=lambda u: (len(sig1[of1[u]]), u))
    used_inv: dict[NodeId, NodeId] = {}

    def compatible(u: NodeId, v: NodeId) -> bool:
        for w in n1.succ[u]:
            if w in phi and w not in n1.leaf_label and phi[w] not in n2.succ[v]:
                return False
        for w in n1.pred[u]:
            if w in phi and v not in n2.succ.get(phi[w], ()):
                return False
        # Reverse direction: assigned neighbors of v must be neighbors of u.
        for w2 in n2.succ[v]:
            if w2 in used_inv:
                if used_inv[w2] not in n1.succ[u]:
                    return False
        for w2 in n2.pred[v]:
            if w2 in used_inv:
                if u not in n1.succ.get(used_inv[w2], ()):
                    return False
        return True

    tried = [0] * len(order)
    i = 0
    while i < len(order):
        u = order[i]
        if u in phi:  # back from a failed deeper level: undo this choice
            del used_inv[phi.pop(u)]
        vs = sig2[of1[u]]
        k = tried[i]
        while k < len(vs) and (vs[k] in used_inv or not compatible(u, vs[k])):
            k += 1
        if k == len(vs):
            if i == 0:
                return fail
            tried[i] = 0
            i -= 1
            continue
        tried[i] = k + 1
        phi[u] = vs[k]
        used_inv[vs[k]] = u
        i += 1
    # Full edge check (the incremental checks already imply it, kept cheap).
    if not all(phi[v] in n2.succ[phi[u]] for u, v in n1.edges()):
        raise SelfCheckFailed("isomorphism mapping misses an edge")
    return (True, dict(phi)) if return_mapping else True
