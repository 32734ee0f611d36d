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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    InadmissibleContraction,
    InadmissibleExpansion,
    InadmissibleStep,
    InvalidWitness,
    KeyMismatch,
    LeafSetMismatch,
    NotAnEdge,
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

    def __len__(self) -> int:
        return len(self.steps)


def contract(n: Network, c: Contraction) -> Network:
    """Raw contraction per the definition; the result may be invalid.

    No admissibility is enforced: the output can contain a directed cycle or
    lose a leaf. Use contract_admissible for the checked operation.
    """
    u, v, w = c.u, c.v, c.w
    if not n.has_edge(u, v):
        raise NotAnEdge(f"({u},{v}) is not an edge")
    assert w not in n.succ, "merge node must be fresh"
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
    edges = [(x, y) for x, ys in succ.items() for y in ys]
    try:
        return validate(edges, dict(n.leaf_label), nodes=succ.keys())
    except Exception as exc:  # noqa: BLE001 - report the precise violation
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


def contract_to_star(n: Network) -> EditSequence:
    """Admissible contractions collapsing all internal nodes into the root.

    Strategy: repeatedly contract the edge from the root to its first
    non-leaf out-neighbor in topological order. Any alternative root→c path
    would route through an earlier non-leaf out-neighbor, so the chosen edge
    never has one and each step is admissible.
    """
    steps: list[Contraction] = []
    cur = n
    while cur.num_internal > 1:
        position = {x: i for i, x in enumerate(topological_order(cur))}
        candidates = [x for x in cur.succ[cur.root] if not cur.is_leaf(x)]
        target = min(candidates, key=position.__getitem__)
        w = cur.fresh_id()
        assert is_admissible(cur, cur.root, target)
        steps.append(Contraction(cur.root, target, w))
        cur = contract(cur, steps[-1])
    return EditSequence(tuple(steps))


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
    down = contract_to_star(n1)
    cur = apply_sequence(n1, down)

    seq2 = contract_to_star(n2)
    prefixes = [n2]
    for step in seq2.steps:
        prefixes.append(contract(prefixes[-1], step))

    # Map the n2-side star onto the n1-side star.
    phi: dict[NodeId, NodeId] = {prefixes[-1].root: cur.root}
    by_label1 = cur.leaf_by_label()
    for leaf, lab in n2.leaf_label.items():
        phi[leaf] = by_label1[lab]

    up: list[Expansion] = []
    for i in range(len(seq2.steps) - 1, -1, -1):
        c = seq2.steps[i]
        e = inverse_expansion(prefixes[i], c)
        fresh_v = cur.fresh_id()
        fresh_w = fresh_v + 1
        mapped = Expansion(
            u=phi[e.u],
            v=fresh_v,
            w=fresh_w,
            xminus=tuple(sorted(phi[x] for x in e.xminus)),
            yminus=tuple(sorted(phi[x] for x in e.yminus)),
            zminus=tuple(sorted(phi[x] for x in e.zminus)),
            xplus=tuple(sorted(phi[x] for x in e.xplus)),
            yplus=tuple(sorted(phi[x] for x in e.yplus)),
            zplus=tuple(sorted(phi[x] for x in e.zplus)),
        )
        cur = expand(cur, mapped)
        del phi[e.u]
        phi[e.v] = fresh_v
        phi[e.w] = fresh_w
        up.append(mapped)
    return EditSequence(down.steps + tuple(up))


def validate_witness(
    n: Network, m: Network, w: WitnessStructure
) -> tuple[bool, str | None]:
    """Check the three witness conditions; returns (ok, first violation)."""
    internal_m = set(m.internal_nodes())
    if set(w.parts) != internal_m:
        raise KeyMismatch(
            f"witness keys {sorted(w.parts)} != internal nodes {sorted(internal_m)}"
        )
    if n.leaf_universe != m.leaf_universe:
        raise LeafSetMismatch(f"{n.leaf_universe} vs {m.leaf_universe}")

    internal_n = set(n.internal_nodes())
    seen: set[NodeId] = set()
    for key, members in w.parts.items():
        if not members:
            return False, f"part {key} is empty"
        if not members <= internal_n:
            return False, f"part {key} contains non-internal nodes"
        if members & seen:
            return False, f"part {key} overlaps another part"
        seen |= members
        # weak connectivity within the part
        members_set = set(members)
        start = next(iter(members_set))
        reached = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in list(n.succ[x]) + list(n.pred[x]):
                if y in members_set and y not in reached:
                    reached.add(y)
                    stack.append(y)
        if reached != members_set:
            return False, f"part {key} is not weakly connected"
    if seen != internal_n:
        return False, "parts do not cover all internal nodes"

    part_of: dict[NodeId, NodeId] = {}
    for key, members in w.parts.items():
        for x in members:
            part_of[x] = key
    cross: set[tuple[NodeId, NodeId]] = set()
    for x, y in n.edges():
        if x in part_of and y in part_of and part_of[x] != part_of[y]:
            cross.add((part_of[x], part_of[y]))
    m_internal_edges = {
        (x, y) for x, y in m.edges() if x in internal_m and y in internal_m
    }
    if cross != m_internal_edges:
        missing = m_internal_edges - cross
        extra = cross - m_internal_edges
        return False, f"edge pattern mismatch (missing={missing}, extra={extra})"

    leaves_n = n.leaf_by_label()
    for leaf_m, lab in m.leaf_label.items():
        parent_m = m.pred[leaf_m][0]
        parent_n = n.pred[leaves_n[lab]][0]
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
    """Contractions collapsing each witness part, in a fixed admissible order.

    Parts are processed in topological order of m; inside a part the
    topologically first remaining node is contracted onto its first
    out-neighbor within the part.
    """
    ok, why = validate_witness(n, m, w)
    if not ok:
        raise InvalidWitness(why)
    steps: list[Contraction] = []
    cur = n
    part_order = [u for u in topological_order(m) if u in w.parts]
    for key in part_order:
        live = set(w.parts[key])
        while len(live) > 1:
            position = {x: i for i, x in enumerate(topological_order(cur))}
            x = min(live, key=position.__getitem__)
            inside = [y for y in cur.succ[x] if y in live]
            assert inside, "weakly connected part must have an internal edge"
            y = min(inside, key=position.__getitem__)
            fresh = cur.fresh_id()
            if not is_admissible(cur, x, y):
                raise InvalidWitness(f"contraction ({x},{y}) inside part {key} inadmissible")
            steps.append(Contraction(x, y, fresh))
            cur = contract(cur, steps[-1])
            live -= {x, y}
            live.add(fresh)
    return EditSequence(tuple(steps))


def sequence_to_witness(n: Network, seq: EditSequence) -> tuple[Network, WitnessStructure]:
    """Replay contractions, tracking which original nodes merged where."""
    merged: dict[NodeId, frozenset[NodeId]] = {
        u: frozenset([u]) for u in n.internal_nodes()
    }
    cur = n
    for i, step in enumerate(seq.steps):
        if not isinstance(step, Contraction):
            raise InadmissibleStep(i, "witness extraction takes contractions only")
        if not cur.has_edge(step.u, step.v):
            raise InadmissibleStep(i, f"({step.u},{step.v}) is not an edge")
        if not is_admissible(cur, step.u, step.v):
            raise InadmissibleStep(i, f"contraction ({step.u},{step.v}) inadmissible")
        merged[step.w] = merged.pop(step.u) | merged.pop(step.v)
        cur = contract(cur, step)
    return cur, WitnessStructure(parts=dict(merged))


def quotient(n: Network, parts: Sequence[Iterable[NodeId]]) -> tuple[Network, dict[NodeId, NodeId]]:
    """Collapse each part of a partition of I(n) to a single fresh node.

    Returns the quotient network and the map part-member → quotient node.
    Raises validation errors when the quotient is not a valid network
    (e.g. the partition induces a directed cycle).
    """
    part_of: dict[NodeId, NodeId] = {}
    for i, members in enumerate(parts):
        for x in members:
            part_of[x] = i
    assert set(part_of) == set(n.internal_nodes()), "parts must cover internals"
    next_id = len(parts)
    leaf_map: dict[NodeId, NodeId] = {}
    leaf_labels: dict[NodeId, str] = {}
    for leaf in n.leaves():
        leaf_map[leaf] = next_id
        leaf_labels[next_id] = n.leaf_label[leaf]
        next_id += 1
    edges: set[tuple[NodeId, NodeId]] = set()
    for x, y in n.edges():
        xx = part_of[x]
        yy = part_of[y] if y in part_of else leaf_map[y]
        if xx != yy:
            edges.add((xx, yy))
    net = validate(sorted(edges), leaf_labels, nodes=range(len(parts)))
    return net, part_of


def delta_mcc_from_common(n1: Network, n2: Network, m: Network) -> int:
    return n1.num_internal + n2.num_internal - 2 * m.num_internal
