"""Rooted leaf-labeled DAGs and their basic queries.

A network is a DAG with exactly one in-degree-0 node (the root) and whose
out-degree-0 nodes (the leaves) each have in-degree exactly 1 and carry
pairwise distinct labels. Edges have set semantics: no parallel edges.
Internal nodes of in- and out-degree 1 are allowed here; algorithms that
cannot handle them reject networks explicitly.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

from .errors import (
    CyclicGraph,
    DuplicateLabel,
    LeafWithInDegreeNot1,
    MultipleRoots,
    NoRoot,
    UnknownNode,
    UnlabeledLeaf,
)

NodeId = int


class Network:
    """Immutable rooted DAG with labeled leaves.

    Adjacency is stored as sorted tuples so that every traversal of the same
    network is deterministic. Instances are produced by :func:`validate`;
    `contract` and `tree_mcc` are the only trusted callers that skip it.
    """

    __slots__ = ("succ", "pred", "leaf_label", "root", "_universe", "_clades", "_depths")

    def __init__(
        self,
        succ: Mapping[NodeId, Iterable[NodeId]],
        leaf_label: Mapping[NodeId, str],
        root: NodeId,
    ):
        """Unchecked: `succ` must map every node of a valid network to its
        out-neighbors; its key order becomes the node order."""
        self.succ = {u: tuple(sorted(vs)) for u, vs in succ.items()}
        pred: dict[NodeId, list[NodeId]] = {u: [] for u in self.succ}
        for u, vs in self.succ.items():
            for v in vs:
                pred[v].append(u)
        self.pred = {v: tuple(sorted(ps)) for v, ps in pred.items()}
        self.leaf_label = dict(leaf_label)
        self.root = root
        self._universe: tuple[str, ...] | None = None
        self._clades: dict[NodeId, int] | None = None
        self._depths: dict[NodeId, int] | None = None

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
        return [u for u in sorted(self.succ) if len(self.pred[u]) >= 2]

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
        if self._depths is None:
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
            self._depths = dist
        return self._depths

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
                lines.append(f'  n{u} [label="{self.leaf_label[u]}", shape=plaintext];')
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

    Raises CyclicGraph, MultipleRoots, NoRoot, UnlabeledLeaf, DuplicateLabel
    or LeafWithInDegreeNot1 on the first violated condition.
    """
    succ_sets: dict[NodeId, set[NodeId]] = {}
    for u in nodes:
        succ_sets.setdefault(u, set())
    for u in leaf_labels:
        succ_sets.setdefault(u, set())
    for u, v in edges:
        if u == v:
            raise CyclicGraph(f"self-loop at node {u}")
        succ_sets.setdefault(u, set()).add(v)
        succ_sets.setdefault(v, set())
    if not succ_sets:
        raise NoRoot("empty node set")

    indeg = {u: 0 for u in succ_sets}
    for u, vs in succ_sets.items():
        for v in vs:
            indeg[v] += 1

    # Kahn's algorithm: detects cycles and finds the sources.
    queue = [u for u in succ_sets if indeg[u] == 0]
    remaining = dict(indeg)
    order_count = 0
    stack = list(queue)
    while stack:
        u = stack.pop()
        order_count += 1
        for v in succ_sets[u]:
            remaining[v] -= 1
            if remaining[v] == 0:
                stack.append(v)
    if order_count != len(succ_sets):
        raise CyclicGraph("directed cycle detected")
    if not queue:
        raise NoRoot("no in-degree-0 node")
    if len(queue) > 1:
        raise MultipleRoots(f"in-degree-0 nodes: {sorted(queue)}")
    root = queue[0]

    labels_seen: dict[str, NodeId] = {}
    for u, lab in leaf_labels.items():
        if u not in succ_sets:
            raise UnknownNode(f"label on unknown node {u}")
        if succ_sets[u]:
            raise UnlabeledLeaf(f"label {lab!r} attached to non-leaf node {u}")
        if lab in labels_seen:
            raise DuplicateLabel(f"label {lab!r} on nodes {labels_seen[lab]} and {u}")
        labels_seen[lab] = u
    for u, vs in succ_sets.items():
        if not vs:
            if u not in leaf_labels:
                raise UnlabeledLeaf(f"sink node {u} has no label")
            if indeg[u] != 1:
                raise LeafWithInDegreeNot1(f"leaf {u} has in-degree {indeg[u]}")

    return Network(succ_sets, leaf_labels, root)


def is_acyclic(n: Network) -> bool:
    """Cycle check that works on raw (possibly invalid) networks."""
    remaining = {u: len(n.pred[u]) for u in n.succ}
    stack = [u for u in n.succ if remaining[u] == 0]
    count = 0
    while stack:
        u = stack.pop()
        count += 1
        for v in n.succ[u]:
            remaining[v] -= 1
            if remaining[v] == 0:
                stack.append(v)
    return count == len(n.succ)


def topological_order(n: Network) -> list[NodeId]:
    """Deterministic topological order (smallest available NodeId first)."""
    remaining = {u: len(n.pred[u]) for u in n.succ}
    heap = [u for u in n.succ if remaining[u] == 0]
    heapq.heapify(heap)
    order: list[NodeId] = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in n.succ[u]:
            remaining[v] -= 1
            if remaining[v] == 0:
                heapq.heappush(heap, v)
    assert len(order) == len(n.succ)
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

    # Assign rare signatures first to cut branching.
    order = sorted(of1, key=lambda u: (len(sig1[of1[u]]), u))
    used: set[NodeId] = set()

    def compatible(u: NodeId, v: NodeId) -> bool:
        for l1 in n1.succ[u]:
            if l1 in n1.leaf_label and phi[l1] not in n2.succ[v]:
                return False
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

    used_inv: dict[NodeId, NodeId] = {}

    def assign(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for v in sig2[of1[u]]:
            if v in used:
                continue
            if compatible(u, v):
                phi[u] = v
                used.add(v)
                used_inv[v] = u
                if assign(i + 1):
                    return True
                del phi[u]
                used.remove(v)
                del used_inv[v]
        return False

    ok = assign(0)
    if not ok:
        return fail
    # Full edge check (the incremental checks already imply it, kept cheap).
    assert all(phi[v] in n2.succ[phi[u]] for u, v in n1.edges())
    return (True, dict(phi)) if return_mapping else True
