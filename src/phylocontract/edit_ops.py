"""Contraction/expansion edit operations, witness structures and sequences.

The two primitive moves:

* contraction c(u,v,w): replace edge (u,v) by a merged node w with
  in(w) = in(u) ∪ (in(v) \\ {u}) and out(w) = (out(u) \\ {v}) ∪ out(v);
* expansion e(u,v,w,X−,Y−,Z−,X+,Y+,Z+): split u into an edge v→w,
  distributing u's in-neighbors over X−/Y−/Z− (Z− feeding both halves) and
  its out-neighbors over X+/Y+/Z+.

A contraction is admissible iff v is not a leaf and no directed u→v path
avoids the edge (u,v); equivalently the raw result is a valid network on the
same leaves. Expansion admissibility is checked on the result directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    InadmissibleContraction,
    InadmissibleExpansion,
    InadmissibleStep,
    InvalidParameters,
    InvalidWitness,
    KeyMismatch,
    LeafSetMismatch,
    NotAnEdge,
    PhyloError,
    SelfCheckFailed,
)
from .network_core import Network, NodeId, topological_order, validate


@dataclass(frozen=True)
class Contraction:
    u: NodeId
    v: NodeId
    w: NodeId


@dataclass(frozen=True)
class Expansion:
    u: NodeId
    v: NodeId
    w: NodeId
    xminus: tuple[NodeId, ...]
    yminus: tuple[NodeId, ...]
    zminus: tuple[NodeId, ...]
    xplus: tuple[NodeId, ...]
    yplus: tuple[NodeId, ...]
    zplus: tuple[NodeId, ...]


@dataclass(frozen=True)
class WitnessStructure:
    """For each internal node of the target, the source internals merged into it."""

    parts: dict[NodeId, frozenset[NodeId]]


@dataclass(frozen=True)
class EditSequence:
    steps: tuple = ()


def contract(n: Network, c: Contraction) -> Network:
    """Raw contraction per the definition; the result may be invalid.

    No admissibility is enforced: the output can contain a directed cycle or
    lose a leaf. Use contract_admissible for the checked operation. Raises
    NotAnEdge for a non-edge and InvalidParameters when w is not fresh.
    """
    u, v, w = c.u, c.v, c.w
    if not n.has_edge(u, v):
        raise NotAnEdge(f"({u},{v}) is not an edge")
    if w in n.succ:
        raise InvalidParameters(f"merge node {w} must be fresh")
    new_in = set(n.pred[u]) | (set(n.pred[v]) - {u})
    new_out = (set(n.succ[u]) - {v}) | set(n.succ[v])
    succ: dict[NodeId, set[NodeId]] = {}
    for x in n.succ:
        if x in (u, v):
            continue
        succ[x] = {w if y in (u, v) else y for y in n.succ[x]}
    succ[w] = {y for y in new_out if y not in (u, v)}
    if u in new_out or v in new_out:
        # u ∈ in(v)∖... only via u→v which is removed; a v→u edge becomes a
        # self-loop under set semantics and marks the result cyclic.
        succ[w].add(w)

    leaf_label = {x: lab for x, lab in n.leaf_label.items() if x != v}
    root = w if n.root in (u, v) else n.root
    return Network(succ, leaf_label, root)


def _alternative_path(n: Network, u: NodeId, v: NodeId) -> list[NodeId] | None:
    """A directed u→v path avoiding edge (u,v), or None."""
    parent: dict[NodeId, NodeId] = {}
    stack = [u]
    seen = {u}
    while stack:
        x = stack.pop()
        for y in n.succ[x]:
            if x == u and y == v:
                continue
            if y in seen:
                continue
            parent[y] = x
            if y == v:
                path = [v]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                return path[::-1]
            seen.add(y)
            stack.append(y)
    return None


def is_admissible(n: Network, u: NodeId, v: NodeId) -> bool:
    """True iff contracting (u,v) yields a valid network on the same leaves."""
    if not n.has_edge(u, v):
        raise NotAnEdge(f"({u},{v}) is not an edge")
    if n.is_leaf(v):
        return False
    return _alternative_path(n, u, v) is None


def contract_admissible(n: Network, u: NodeId, v: NodeId, w: NodeId | None = None) -> Network:
    if not n.has_edge(u, v):
        raise NotAnEdge(f"({u},{v}) is not an edge")
    if n.is_leaf(v):
        raise InadmissibleContraction(f"node {v} is a leaf and may not be absorbed")
    alt = _alternative_path(n, u, v)
    if alt is not None:
        raise InadmissibleContraction(
            f"alternative directed path {u}→{v}: {alt}", alt_path=alt
        )
    return contract(n, Contraction(u, v, n.fresh_id() if w is None else w))


def expand(n: Network, e: Expansion) -> Network:
    """Apply an expansion; the result must be a valid network on the same leaves."""
    u = e.u
    if u not in n.succ or n.is_leaf(u):
        raise InadmissibleExpansion(f"node {u} is not an internal node")
    if e.v in n.succ or e.w in n.succ or e.v == e.w:
        raise InadmissibleExpansion("v and w must be fresh distinct nodes")
    inn = set(n.pred[u])
    out = set(n.succ[u])
    xm, ym, zm = set(e.xminus), set(e.yminus), set(e.zminus)
    xp, yp, zp = set(e.xplus), set(e.yplus), set(e.zplus)
    if (
        xm | ym | zm != inn
        or len(xm) + len(ym) + len(zm) != len(inn)
        or xp | yp | zp != out
        or len(xp) + len(yp) + len(zp) != len(out)
    ):
        raise InadmissibleExpansion("classes must partition in(u) and out(u)")

    succ: dict[NodeId, set[NodeId]] = {
        x: set(ys) for x, ys in n.succ.items() if x != u
    }
    for x in succ:
        if u in succ[x]:
            succ[x].discard(u)
            if x in xm or x in zm:
                succ[x].add(e.v)
            if x in ym or x in zm:
                succ[x].add(e.w)
    succ[e.v] = xp | zp | {e.w}
    succ[e.w] = yp | zp
    edges = ((x, y) for x, ys in succ.items() for y in ys)
    try:
        return validate(edges, dict(n.leaf_label), nodes=succ.keys())
    except PhyloError as exc:  # report the precise violation
        raise InadmissibleExpansion(f"expansion result invalid: {exc}") from exc


def inverse_expansion(n_before: Network, c: Contraction) -> Expansion:
    """The canonical expansion that undoes c on contract(n_before, c).

    Applying the returned expansion to the contracted network recreates
    n_before exactly (same node ids), splitting w back into u above v.
    """
    u, v = c.u, c.v
    in_u, in_v = set(n_before.pred[u]), set(n_before.pred[v])
    out_u, out_v = set(n_before.succ[u]), set(n_before.succ[v])
    out_u_sans_v = out_u - {v}
    return Expansion(
        u=c.w,
        v=u,
        w=v,
        xminus=tuple(sorted(in_u - in_v)),
        yminus=tuple(sorted((in_v - {u}) - in_u)),
        zminus=tuple(sorted(in_u & in_v)),
        xplus=tuple(sorted(out_u_sans_v - out_v)),
        yplus=tuple(sorted(out_v - out_u_sans_v)),
        zplus=tuple(sorted(out_u_sans_v & out_v)),
    )


def _star_walk(n: Network):
    """`_collapse` on the one-part star witness, which every network has."""
    return _collapse(n, [(0, n.internal_nodes())])


def contract_to_star(n: Network) -> EditSequence:
    """Admissible contractions collapsing all internal nodes into the root.

    This is witness_to_sequence on the one-part star witness: it repeatedly
    contracts the edge from the root to its first non-leaf out-neighbor in
    topological order. Any alternative root→c path would route through an
    earlier non-leaf out-neighbor, so the chosen edge never has one and each
    step is admissible. witness_to_sequence, contract_to_star, connect and
    the CLI's `star` share one walk, `_collapse`, which makes each step once.
    """
    return EditSequence(tuple(step for step, _ in _star_walk(n)))


def apply_sequence(n: Network, seq: EditSequence) -> Network:
    """Replay a sequence, enforcing admissibility at every step."""
    cur = n
    for i, step in enumerate(seq.steps):
        if isinstance(step, Contraction):
            if not cur.has_edge(step.u, step.v):
                raise InadmissibleStep(i, f"({step.u},{step.v}) is not an edge")
            if not is_admissible(cur, step.u, step.v):
                raise InadmissibleStep(i, f"contraction ({step.u},{step.v}) inadmissible")
            cur = contract(cur, step)
        elif isinstance(step, Expansion):
            try:
                cur = expand(cur, step)
            except InadmissibleExpansion as exc:
                raise InadmissibleStep(i, str(exc)) from exc
        else:
            raise InadmissibleStep(i, f"unknown step type {type(step).__name__}")
    return cur


def connect(n1: Network, n2: Network) -> EditSequence:
    """An admissible edit sequence turning n1 into a network isomorphic to n2.

    Route through the star: contract n1 down, then replay the reverse of
    n2's star contraction as expansions, threading node ids through the
    isomorphism between the two stars. Length is |I(n1)|+|I(n2)|−2.
    """
    if n1.leaf_universe != n2.leaf_universe:
        raise LeafSetMismatch(f"{n1.leaf_universe} vs {n2.leaf_universe}")
    down, cur = [], n1
    for step, cur in _star_walk(n1):
        down.append(step)
    walk2 = [(None, n2), *_star_walk(n2)]  # (step, the network it leaves)

    # Map the n2-side star onto the n1-side star.
    phi: dict[NodeId, NodeId] = {walk2[-1][1].root: cur.root}
    by_label1 = cur.leaf_by_label()
    for leaf, lab in n2.leaf_label.items():
        phi[leaf] = by_label1[lab]

    up: list[Expansion] = []
    for i in range(len(walk2) - 1, 0, -1):
        e = inverse_expansion(walk2[i - 1][1], walk2[i][0])
        fresh_v = cur.fresh_id()
        fresh_w = fresh_v + 1
        classes = (e.xminus, e.yminus, e.zminus, e.xplus, e.yplus, e.zplus)
        mapped = Expansion(
            phi[e.u], fresh_v, fresh_w, *(tuple(sorted(phi[x] for x in c)) for c in classes)
        )
        cur = expand(cur, mapped)
        del phi[e.u]
        phi[e.v] = fresh_v
        phi[e.w] = fresh_w
        up.append(mapped)
    return EditSequence((*down, *up))


def validate_witness(
    n: Network, m: Network, w: WitnessStructure
) -> tuple[bool, str | None]:
    """Check the three witness conditions; returns (ok, first violation)."""
    internal_m = m.succ.keys() - m.leaf_label.keys()
    if w.parts.keys() != internal_m:
        raise KeyMismatch(
            f"witness keys {sorted(w.parts)} != internal nodes {sorted(internal_m)}"
        )
    if n.leaf_universe != m.leaf_universe:
        raise LeafSetMismatch(f"{n.leaf_universe} vs {m.leaf_universe}")

    internal_n = n.succ.keys() - n.leaf_label.keys()
    succ, pred = n.succ, n.pred
    part_of: dict[NodeId, NodeId] = {}  # also the nodes seen so far
    for key, members in w.parts.items():
        if not members:
            return False, f"part {key} is empty"
        if not members <= internal_n:
            return False, f"part {key} contains non-internal nodes"
        if not part_of.keys().isdisjoint(members):
            return False, f"part {key} overlaps another part"
        for x in members:
            part_of[x] = key
        if len(members) == 1:
            continue
        # weak connectivity within the part
        start = next(iter(members))
        reached = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for around in (succ[x], pred[x]):
                for y in around:
                    if y in members and y not in reached:
                        reached.add(y)
                        stack.append(y)
        if len(reached) != len(members):
            return False, f"part {key} is not weakly connected"
    if len(part_of) != len(internal_n):
        return False, "parts do not cover all internal nodes"

    # Both edge sets are filled in edge order, tail first, so that the sets
    # a mismatch names list their edges as they always have.
    cross: set[tuple[NodeId, NodeId]] = set()
    for x in sorted(part_of):
        gx = part_of[x]
        for y in succ[x]:
            gy = part_of.get(y, gx)  # a leaf, or x's own part
            if gy != gx:
                cross.add((gx, gy))
    m_internal_edges = {
        (x, y) for x in sorted(internal_m) for y in m.succ[x] if y in internal_m
    }
    if cross != m_internal_edges:
        missing = m_internal_edges - cross
        extra = cross - m_internal_edges
        return False, f"edge pattern mismatch (missing={missing}, extra={extra})"

    leaves_n = n.leaf_by_label()
    for leaf_m, lab in m.leaf_label.items():
        parent_m = m.pred[leaf_m][0]
        parent_n = pred[leaves_n[lab]][0]
        if parent_n not in w.parts[parent_m]:
            return False, f"leaf {lab!r}: parent {parent_n} not in part {parent_m}"
    return True, None


def check_witness(n: Network, m: Network, w: WitnessStructure) -> None:
    """Self-check on a computed result: raise SelfCheckFailed unless w
    certifies m as a contraction of n."""
    valid, why = validate_witness(n, m, w)
    if not valid:
        raise SelfCheckFailed(f"witness check failed: {why}")


def witness_to_sequence(n: Network, m: Network, w: WitnessStructure) -> EditSequence:
    """Contractions collapsing each witness part, in a fixed admissible order:
    parts in topological order of m, each by `_collapse`."""
    ok, why = validate_witness(n, m, w)
    if not ok:
        raise InvalidWitness(why)
    parts = [(u, w.parts[u]) for u in topological_order(m) if u in w.parts]
    return EditSequence(tuple(step for step, _ in _collapse(n, parts)))


def _collapse(n: Network, parts):
    """Collapse each (key, part) of a valid witness of n in turn, yielding
    each contraction and the network it leaves: a part's topologically first
    live node is contracted onto its first live out-neighbor."""
    cur = n
    for key, part in parts:
        live = set(part)
        while len(live) > 1:
            position = {x: i for i, x in enumerate(topological_order(cur))}
            x = min(live, key=position.__getitem__)
            # validate_witness found the part weakly connected, and each
            # contraction inside it keeps it so. x is its topologically first
            # live node, so every edge joining x to the rest of the part
            # leaves x: a live successor y exists.
            y = min((y for y in cur.succ[x] if y in live), key=position.__getitem__)
            if not is_admissible(cur, x, y):
                raise InvalidWitness(f"contraction ({x},{y}) inside part {key} inadmissible")
            step = Contraction(x, y, cur.fresh_id())
            cur = contract(cur, step)
            yield step, cur
            live -= {x, y}
            live.add(step.w)


def sequence_to_witness(n: Network, seq: EditSequence) -> tuple[Network, WitnessStructure]:
    """Replay contractions, tracking which original nodes merged where."""
    steps = seq.steps
    j = next((i for i, s in enumerate(steps) if not isinstance(s, Contraction)), len(steps))
    cur = apply_sequence(n, EditSequence(steps[:j]))
    if j < len(steps):
        raise InadmissibleStep(j, "witness extraction takes contractions only")
    merged = {u: frozenset([u]) for u in n.internal_nodes()}
    for step in steps:
        merged[step.w] = merged.pop(step.u) | merged.pop(step.v)
    return cur, WitnessStructure(merged)


def quotient(n: Network, parts: Sequence[Iterable[NodeId]]) -> Network:
    """Collapse each part of a partition of I(n) to a single fresh node.

    Returns the quotient network, whose node i is part i.
    Raises InvalidParameters when the parts do not cover exactly I(n), and
    validation errors when the quotient is not a valid network (e.g. the
    partition induces a directed cycle).
    """
    part_of: dict[NodeId, NodeId] = {}
    for i, members in enumerate(parts):
        for x in members:
            part_of[x] = i
    leaf_label = n.leaf_label
    if part_of.keys() != n.succ.keys() - leaf_label.keys():
        raise InvalidParameters("parts must cover exactly the internal nodes")
    # leaves take the ids after the parts, in NodeId order
    leaf_of = {leaf: i for i, leaf in enumerate(sorted(leaf_label), start=len(parts))}
    image = part_of | leaf_of
    edges = (
        (xx, yy) for x, xx in part_of.items() for y in n.succ[x] if (yy := image[y]) != xx
    )
    leaf_labels = {i: leaf_label[leaf] for leaf, i in leaf_of.items()}
    return validate(edges, leaf_labels, nodes=range(len(parts)))


def delta_mcc_from_common(n1: Network, n2: Network, m: Network) -> int:
    """delta = |I(n1)| + |I(n2)| - 2 |I(m)| for a common contraction m."""
    return n1.num_internal + n2.num_internal - 2 * m.num_internal


def common_contraction(
    n1: Network,
    n2: Network,
    parts1: Sequence[Iterable[NodeId]],
    parts2: Sequence[Iterable[NodeId]],
) -> tuple[int, Network, WitnessStructure, WitnessStructure]:
    """The certified result of a common contraction solver: (delta, m, w1, w2).

    m is `quotient(n1, parts1)`, so node g of m is part g; part g of each
    side is the witness of node g. Raises SelfCheckFailed unless both
    witnesses certify m as a contraction of their network.
    """
    m = quotient(n1, parts1)
    w1 = WitnessStructure({g: frozenset(p) for g, p in enumerate(parts1)})
    w2 = WitnessStructure({g: frozenset(p) for g, p in enumerate(parts2)})
    check_witness(n1, m, w1)
    check_witness(n2, m, w2)
    return delta_mcc_from_common(n1, n2, m), m, w1, w2
