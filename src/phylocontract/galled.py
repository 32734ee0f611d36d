"""Weakly galled trees: recognition, reticulation cycles, clades.

A reticulation cycle is a pair of directed paths r→…→t meeting only at r
(the cycle root) and t (the reticulation). A network is a weakly galled tree
when no two such cycles share an edge.

One walk both recognises these networks and lists their cycles. Every
in-degree must be at most 2. For each reticulation t, the walk climbs t's two
parent chains in lockstep through in-degree-1 nodes; the first node both
chains reach is the cycle root. The network is rejected when the chains never
meet or two of the cycles found share an edge. This is exact. With in-degrees
at most 2, a rooted DAG has cycle rank |E| - |V| + 1 = R, its number of
reticulations, so R edge-disjoint cycles span its whole cycle space and every
undirected cycle is one of them. Conversely, every side node of a cycle in a
weakly galled tree has in-degree 1, so the chains climb its sides to its root.

Clades: D(u) is the set of leaf labels reachable from u. D(u) is a 1-clade
when u is not strictly inside a cycle side; D(u) ∪ D(v) is a 2-clade when
u, v sit on distinct sides of one cycle, or one of them is its reticulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotWeaklyGalled, SelfCheckFailed
from .network_core import Network, NodeId, _label_indices

__all__ = [
    "ReticulationCycle",
    "CladeIndex",
    "is_weakly_galled",
    "cycles",
    "build_clade_index",
    "has_degree2_node",
]


@dataclass(frozen=True)
class ReticulationCycle:
    root: NodeId
    reticulation: NodeId
    side_a: tuple[NodeId, ...]  # top-down, excluding root and reticulation
    side_b: tuple[NodeId, ...]

    @property
    def order(self) -> tuple[NodeId, ...]:
        """Cyclic listing r, a1..ap, t, bq..b1 (side b reversed)."""
        return (self.root, *self.side_a, self.reticulation, *reversed(self.side_b))

    def edges(self) -> set[tuple[NodeId, NodeId]]:
        pa = [self.root, *self.side_a, self.reticulation]
        pb = [self.root, *self.side_b, self.reticulation]
        out = set(zip(pa, pa[1:]))
        out |= set(zip(pb, pb[1:]))
        return out

    def pairs(self) -> list[tuple[NodeId, NodeId]]:
        """The pairs (x, y) whose clade union is a 2-clade: x on side a or
        the reticulation, y on side b or the reticulation, not both it."""
        t = self.reticulation
        return [
            *((x, y) for x in self.side_a for y in self.side_b),
            *((x, t) for x in self.side_a),
            *((t, y) for y in self.side_b),
        ]


@dataclass
class CladeIndex:
    universe: tuple[str, ...]
    d: dict[NodeId, int]
    cycles: list[ReticulationCycle]
    has_degree2: bool  # an internal non-root node with one parent and one child
    one_clades: dict[int, tuple[NodeId, ...]] = field(default_factory=dict)
    two_clades: dict[int, tuple[tuple[NodeId, NodeId], ...]] = field(default_factory=dict)

    def labels(self, bits: int) -> tuple[str, ...]:
        return tuple(map(self.universe.__getitem__, _label_indices(bits)))


def has_degree2_node(n: Network) -> bool:
    unary = [u for u, vs in n.succ.items() if len(vs) == 1]
    return any(len(n.pred[u]) == 1 and u != n.root for u in unary)


def _climb(pred: dict[NodeId, tuple[NodeId, ...]], t: NodeId):
    """(root, chain, chain): the first node both parent chains of t reach,
    climbing in lockstep through in-degree-1 nodes, and each chain below it,
    bottom-up; None when both chains stop without meeting. A chain also stops
    at a node it has visited, so raw cyclic graphs from `contract` terminate."""
    chains = ([pred[t][0]], [pred[t][1]])
    seen = (set(chains[0]), set(chains[1]))
    grew = True
    while grew:
        grew = False
        for i in (0, 1):
            ps = pred[chains[i][-1]]
            if len(ps) != 1 or ps[0] in seen[i]:
                continue
            if ps[0] in seen[1 - i]:
                other = chains[1 - i]
                return ps[0], chains[i], other[: other.index(ps[0])]
            chains[i].append(ps[0])
            seen[i].add(ps[0])
            grew = True
    return None


def _cycle_walk(n: Network) -> list[tuple[NodeId, NodeId, tuple, tuple]] | None:
    """(root, reticulation, side, side) per reticulation, sides top-down and
    not yet oriented, or None when n is not a weakly galled tree."""
    if max(map(len, n.pred.values()), default=0) > 2:
        return None
    on_side: set[NodeId] = set()
    found = []
    for t in n.reticulations():
        climbed = _climb(n.pred, t)
        if climbed is None:
            return None
        root, *sides = climbed
        for x in (*sides[0], *sides[1]):
            if x in on_side:
                return None  # the in-edge of x lies on two cycles
            on_side.add(x)
        found.append((root, t, *(tuple(reversed(side)) for side in sides)))
    return found


def is_weakly_galled(n: Network) -> bool:
    """No two reticulation cycles share an edge."""
    return _cycle_walk(n) is not None


def cycles(n: Network) -> list[ReticulationCycle]:
    """One oriented ReticulationCycle per reticulation.

    Orientation rule: the side whose first node has the lexicographically
    smaller clade (as a label tuple; NodeId tiebreak; an empty side first)
    becomes side_a. Cycles are listed by reticulation NodeId.
    """
    found = _cycle_walk(n)
    if found is None:
        raise NotWeaklyGalled(repr(n))
    d = n.clades()

    def side_key(side: tuple[NodeId, ...]) -> tuple:
        return (_label_indices(d[side[0]]), side[0]) if side else ((), -1)

    out = []
    for root, t, side1, side2 in found:
        a, b = sorted((side1, side2), key=side_key)
        out.append(ReticulationCycle(root=root, reticulation=t, side_a=a, side_b=b))
    return out


def build_clade_index(n: Network) -> CladeIndex:
    """Σ1 and Σ2 with their witnessing nodes/pairs, and the cycles they
    were read from.

    On degree-2-free inputs the unicity bounds (≤ 2 nodes per 1-clade value,
    ≤ 1 pair per 2-clade value) are checked while building; a violation
    raises SelfCheckFailed, also under `python -O`.
    """
    cyc = cycles(n)  # raises NotWeaklyGalled when inapplicable
    d = n.clades()
    idx = CladeIndex(
        universe=n.leaf_universe, d=d, cycles=cyc, has_degree2=has_degree2_node(n)
    )
    side_internal = {x for c in cyc for x in (*c.side_a, *c.side_b)}

    ones: dict[int, list[NodeId]] = {}
    for u in n.nodes():  # ascending, so each value's nodes are too
        if u not in side_internal:
            ones.setdefault(d[u], []).append(u)
    idx.one_clades = {bits: tuple(us) for bits, us in ones.items()}

    twos: dict[int, list[tuple[NodeId, NodeId]]] = {}
    for c in cyc:
        for x, y in c.pairs():
            twos.setdefault(d[x] | d[y], []).append((x, y) if x < y else (y, x))
    idx.two_clades = {bits: tuple(sorted(set(ps))) for bits, ps in twos.items()}

    if not idx.has_degree2:
        for bits, us in idx.one_clades.items():
            if len(us) > 2:
                raise SelfCheckFailed(f"1-clade {idx.labels(bits)} on nodes {us}")
        for bits, ps in idx.two_clades.items():
            if len(ps) > 1:
                raise SelfCheckFailed(f"2-clade {idx.labels(bits)} on pairs {ps}")
    return idx
