"""Instance generators: diameter pairs, hardness gadgets, random networks.

The diameter pairs realize the maximum dissimilarity |I1|+|I2|-2 by giving
one network a leaf z directly under the root while every internal node of
the other lies on a directed path from its root to the parent of z; the only
common contraction is then the star. The hardness generators encode Set
Splitting instances as network pairs whose contraction relationship decides
splittability.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import (
    GenerationFailed,
    InvalidParameters,
    SelfCheckFailed,
    SyntaxError as ParseError,
)
from .galled import is_weakly_galled
from .network_core import Network, NodeId, validate

__all__ = [
    "SplitMix64",
    "SetSplittingInstance",
    "parse_set_splitting",
    "format_set_splitting",
    "is_splittable",
    "diameter_pair",
    "reduction_deg_bounded",
    "deg_bounded_target",
    "reduction_five_leaves",
    "five_leaves_target",
    "random_wgt",
]

_MASK = (1 << 64) - 1


class SplitMix64:
    """Small deterministic RNG, identical across platforms and Python builds."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        if n < 1:
            raise InvalidParameters(f"randrange needs n >= 1, got {n}")
        # rejection sampling to avoid modulo bias
        limit = _MASK - (_MASK + 1) % n
        while True:
            x = self.next64()
            if x <= limit:
                return x % n

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        # Fisher-Yates with j = self.randrange(i + 1), next64 and randrange
        # inlined: the same draws at a fraction of the call overhead.
        state, mask = self.state, _MASK
        for i in range(len(seq) - 1, 0, -1):
            while True:
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                z ^= z >> 31
                # randrange's limit is at least mask - i; compute it only
                # for draws above that
                if z <= mask - i or z <= mask - (mask + 1) % (i + 1):
                    break
            j = z % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        self.state = state

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]


# ---------------------------------------------------------------------------
# Set Splitting


@dataclass(frozen=True)
class SetSplittingInstance:
    universe: tuple[str, ...]
    sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise InvalidParameters("duplicate universe elements")
        for s in self.sets:
            if not s:
                raise InvalidParameters("empty set")
            extra = s - set(self.universe)
            if extra:
                raise InvalidParameters(f"elements outside universe: {sorted(extra)}")


def parse_set_splitting(text: str) -> SetSplittingInstance:
    """First non-empty line: universe elements; each later line: one set."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty Set Splitting instance")
    universe = tuple(lines[0].split())
    sets = tuple(frozenset(ln.split()) for ln in lines[1:])
    return SetSplittingInstance(universe=universe, sets=sets)


def format_set_splitting(inst: SetSplittingInstance) -> str:
    lines = [" ".join(inst.universe)]
    lines += [" ".join(sorted(s)) for s in inst.sets]
    return "\n".join(lines) + "\n"


def is_splittable(inst: SetSplittingInstance) -> bool:
    """Does some bipartition of the universe cut every set?"""
    xs = inst.universe
    n = len(xs)
    masks = [sum(1 << i for i, x in enumerate(xs) if x in s) for s in inst.sets]
    full = (1 << n) - 1
    for p in range(1 << (n - 1) if n else 1):  # complements are equivalent
        if all(m & p and m & (full & ~p) for m in masks):
            return True
    return False


# ---------------------------------------------------------------------------
# network construction


class _Builder:
    """Node ids handed out in call order, plus the edge set and leaf labels
    of the network under construction."""

    def __init__(self):
        self.next_id = 0
        self.edges: set[tuple[NodeId, NodeId]] = set()
        self.labels: dict[NodeId, str] = {}

    def node(self) -> NodeId:
        u = self.next_id
        self.next_id += 1
        return u

    def leaf(self, lab: str, parent: NodeId | None = None) -> NodeId:
        u = self.node()
        self.labels[u] = lab
        if parent is not None:
            self.edges.add((parent, u))
        return u

    def network(self) -> Network:
        return validate(self.edges, self.labels)


# ---------------------------------------------------------------------------
# diameter pairs


def _finish(edges: set, labels: dict, expect_internal: int) -> Network:
    n = validate(edges, labels)
    if n.num_internal != expect_internal:
        raise SelfCheckFailed(f"built {n.num_internal} internal nodes, expected {expect_internal}")
    return n


def _check_weakly_galled(n: Network) -> Network:
    if not is_weakly_galled(n):
        raise SelfCheckFailed(f"chain construction built {n!r}, not a weakly galled tree")
    return n


def _tree_contracted(labels: list[str], m: int, at_root: str) -> Network:
    """Contracted caterpillar: m spine nodes, `at_root` hanging off the root,
    the surplus leaves bunched at the bottom.

    Has both useful properties: `at_root` is a root child, and every internal
    node lies on the root-to-bottom spine.
    """
    rest = [x for x in labels if x != at_root]
    order = [at_root, *rest]
    spine = list(range(m))
    leaf_id = {lab: m + i for i, lab in enumerate(labels)}
    edges: set[tuple[NodeId, NodeId]] = set()
    for i in range(m - 1):
        edges.add((spine[i], spine[i + 1]))
        edges.add((spine[i], leaf_id[order[i]]))
    for lab in order[m - 1 :]:
        edges.add((spine[m - 1], leaf_id[lab]))
    return _finish(edges, {leaf_id[lab]: lab for lab in labels}, m)


def _chain_params(total_internal: int, budget_leaves: int) -> tuple[int, int] | None:
    """Split `total_internal` = b + 3c spine/triangle nodes so that
    b + c + 1 leaves fit within `budget_leaves` (surplus goes to the bottom).
    Returns (b, c) with c >= 1, or None. c <= m // 3 makes b >= 0, and
    2c >= m - l + 1 leaves l - (b + c) >= 1 labels for the bottom."""
    m, l = total_internal, budget_leaves
    lo = max(1, -(-(m - l + 1) // 2))
    hi = m // 3
    if lo > hi:
        return None
    c = lo  # fewest triangles that fit
    return m - 3 * c, c


def _root_leaf_feasible(num_leaves: int, m: int) -> bool:
    return _chain_params(m - 1, num_leaves - 1) is not None


def _build_chain(
    g: _Builder,
    top: NodeId | None,
    side_leaves: list[str],
    bottom_leaves: list[str],
    b: int,
    c: int,
) -> None:
    """Spine of b nodes then c vertex-disjoint triangles, hanging leaves as
    given; the final node takes `bottom_leaves`."""
    side = list(side_leaves)
    cur = top
    for _ in range(b):
        s = g.node()
        if cur is not None:
            g.edges.add((cur, s))
        g.leaf(side.pop(0), s)
        cur = s
    last = cur
    for _ in range(c):
        t_top = g.node()
        if last is not None:
            g.edges.add((last, t_top))
        t_side = g.node()
        t_ret = g.node()
        g.edges.update([(t_top, t_side), (t_top, t_ret), (t_side, t_ret)])
        g.leaf(side.pop(0), t_side)
        last = t_ret
    for lab in bottom_leaves:
        g.leaf(lab, last)


def _path_chain(labels: list[str], m: int, deep: str) -> Network:
    """Spine-and-triangles network whose every internal node lies on a
    directed root-to-parent(`deep`) path."""
    params = _chain_params(m, len(labels))
    if params is None:
        raise InvalidParameters(f"no spine/triangle split for m={m}, l={len(labels)}")
    b, c = params
    avail = [x for x in labels if x != deep]
    side = avail[: b + c]
    g = _Builder()
    _build_chain(g, None, side, [*avail[b + c :], deep], b, c)
    return _check_weakly_galled(_finish(g.edges, g.labels, m))


def _root_leaf_cyc(labels: list[str], m: int, top: str) -> Network:
    """Root carries leaf `top`; the rest is a spine-and-triangles chain."""
    b, c = _chain_params(m - 1, len(labels) - 1)
    avail = [x for x in labels if x != top]
    side = avail[: b + c]
    bottom = avail[b + c :]
    g = _Builder()
    top_leaf = g.leaf(top)
    root = g.node()
    g.edges.add((root, top_leaf))
    _build_chain(g, root, side, bottom, b, c)
    return _check_weakly_galled(_finish(g.edges, g.labels, m))


def _ladder(labels: list[str], twin: tuple[str, str], at_root: tuple[str, str]) -> Network:
    """Six-internal gadget for the one grid point without a root-leaf chain:
    a two-rung ladder over the `twin` pair below a two-leaf root."""
    l1, l2 = at_root
    t1, t2 = twin
    leaf_id = {lab: i for i, lab in enumerate(labels)}
    root, p3, a1, a2, b1, b2 = range(4, 10)
    edges = {
        (root, leaf_id[l1]),
        (root, leaf_id[l2]),
        (root, p3),
        (p3, a1),
        (p3, b1),
        (a1, a2),
        (a1, b1),
        (a2, leaf_id[t1]),
        (a2, b2),
        (b1, b2),
        (b2, leaf_id[t2]),
    }
    return _finish(edges, {leaf_id[lab]: lab for lab in labels}, 6)


def diameter_pair(num_leaves: int, m: int, mprime: int) -> tuple[Network, Network]:
    """A pair on one leaf set with delta_MCC exactly m + mprime - 2.

    The first network has m internal nodes, the second mprime. One side
    receives a forcing leaf directly under its root; on the other side every
    internal node lies on a root-to-parent(forcing leaf) path, so the star
    is their only common contraction. At (4, 6, 6), where no weakly galled
    root-leaf form exists, a ladder pair (not weakly galled) is emitted.
    Raises InvalidParameters wherever none of these constructions applies.
    """
    if num_leaves < 4 or m < 2 or mprime < 2:
        raise InvalidParameters("need num_leaves >= 4 and m, mprime >= 2")
    labels = [str(i + 1) for i in range(num_leaves)]
    zfirst, zlast = labels[0], labels[-1]
    first_tree = m <= num_leaves - 1
    second_tree = mprime <= num_leaves - 1

    if second_tree or _root_leaf_feasible(num_leaves, mprime):
        n1 = (
            _tree_contracted(labels, m, at_root=zfirst)
            if first_tree
            else _path_chain(labels, m, deep=zlast)
        )
        n2 = (
            _tree_contracted(labels, mprime, at_root=zlast)
            if second_tree
            else _root_leaf_cyc(labels, mprime, top=zlast)
        )
    elif first_tree or _root_leaf_feasible(num_leaves, m):
        n1 = (
            _tree_contracted(labels, m, at_root=zfirst)
            if first_tree
            else _root_leaf_cyc(labels, m, top=zfirst)
        )
        n2 = _path_chain(labels, mprime, deep=zfirst)
    elif (num_leaves, m, mprime) == (4, 6, 6):
        # both sides lack a root-leaf chain: the ladder pair
        n1 = _ladder(labels, twin=(labels[2], labels[3]), at_root=(labels[0], labels[1]))
        n2 = _ladder(
            [labels[3], labels[1], labels[2], labels[0]],
            twin=(labels[0], labels[1]),
            at_root=(labels[3], labels[2]),
        )
    else:
        raise InvalidParameters(f"no construction for ({num_leaves}, {m}, {mprime})")
    if (n1.num_internal, n2.num_internal) != (m, mprime) or n1.leaf_universe != n2.leaf_universe:
        raise InvalidParameters(
            f"construction for ({num_leaves}, {m}, {mprime}) built a pair with "
            f"({n1.num_internal}, {n2.num_internal}) internal nodes or unequal leaf sets"
        )
    return n1, n2


# ---------------------------------------------------------------------------
# hardness reductions


def _out_caterpillar(g: _Builder, attach: NodeId, targets: list[NodeId]) -> NodeId:
    """attach -> p1 -> ... spine; p_i emits targets[i-1]; the last spine node
    emits the final two targets. One target: direct edge. Returns the last
    spine node, or attach."""
    k = len(targets)
    if k == 1:
        g.edges.add((attach, targets[0]))
        return attach
    spine = [g.node() for _ in range(k - 1)]
    g.edges.add((attach, spine[0]))
    for i in range(k - 2):
        g.edges.add((spine[i], spine[i + 1]))
    for i in range(k - 1):
        g.edges.add((spine[i], targets[i]))
    g.edges.add((spine[-1], targets[-1]))
    return spine[-1]


def _in_caterpillar(g: _Builder, sources: list[NodeId], sink: NodeId) -> None:
    """Mirror image: sources feed a spine that drains into sink."""
    k = len(sources)
    if k == 1:
        g.edges.add((sources[0], sink))
        return
    spine = [g.node() for _ in range(k - 1)]
    for i in range(k - 2):
        g.edges.add((spine[i + 1], spine[i]))
    for i in range(k - 1):
        g.edges.add((sources[i], spine[i]))
    g.edges.add((sources[-1], spine[-1]))
    g.edges.add((spine[0], sink))


def _check_same_leaves(n1: Network, n2: Network) -> tuple[Network, Network]:
    if n1.leaf_universe != n2.leaf_universe:
        raise SelfCheckFailed(f"reduction pair on {n1.leaf_universe} vs {n2.leaf_universe}")
    return n1, n2


def reduction_deg_bounded(inst: SetSplittingInstance) -> tuple[Network, Network, int]:
    """Degree-bounded hardness pair plus the certifying size k=3: the two
    networks admit a common contraction with at least 3 internal nodes
    (equivalently the first contracts to the 3-internal target) iff the
    instance is splittable."""
    sets = list(inst.sets)
    elems = list(inst.universe)
    mm, nn = len(sets), len(elems)
    if mm < 1 or nn < 1:
        raise InvalidParameters("need at least one set and one element")

    g = _Builder()
    r1, r1p, a1, a1p, b1, b1p = (g.node() for _ in range(6))
    l1, l1p, l2, l2p, lr = (g.leaf(x) for x in ("l1", "l1p", "l2", "l2p", "lr"))
    u_s = [g.node() for _ in sets]
    v_s = [g.node() for _ in sets]
    t_x = [g.node() for _ in elems]
    ls = [g.leaf(f"lS{i + 1}") for i in range(mm)]
    lsp = [g.leaf(f"lS{i + 1}p") for i in range(mm)]
    g.edges.update([(r1, r1p), (r1p, a1), (r1p, b1), (a1, a1p), (a1p, l1), (a1p, l1p)])
    g.edges.update([(b1, b1p), (b1p, l2), (b1p, l2p)])
    last_p = _out_caterpillar(g, r1, u_s)
    g.edges.add((last_p, lr))  # lr rides on the last spine node
    _out_caterpillar(g, a1, t_x)
    _in_caterpillar(g, t_x, b1)
    for i, s in enumerate(sets):
        g.edges.add((u_s[i], ls[i]))
        g.edges.add((v_s[i], lsp[i]))
        for j, x in enumerate(elems):
            if x in s:
                g.edges.add((u_s[i], t_x[j]))
                g.edges.add((t_x[j], v_s[i]))
    n1 = g.network()

    # second network
    g = _Builder()
    r2, s1, s2, x2, y2, a2, b2 = (g.node() for _ in range(7))
    m_lr = g.leaf("lr")
    m_l1, m_l1p = g.leaf("l1"), g.leaf("l1p")
    m_l2, m_l2p = g.leaf("l2"), g.leaf("l2p")
    m_ls = [g.leaf(f"lS{i + 1}") for i in range(mm)]
    m_lsp = [g.leaf(f"lS{i + 1}p") for i in range(mm)]
    g.edges.update([(r2, m_lr), (r2, s1), (r2, s2), (s1, m_l1), (s1, x2), (x2, a2)])
    g.edges.update([(s2, m_l2), (s2, y2), (y2, b2), (a2, b2)])
    g.edges.add((_out_caterpillar(g, a2, m_ls), m_l1p))
    g.edges.add((_out_caterpillar(g, b2, m_lsp), m_l2p))
    return _check_same_leaves(n1, g.network()) + (3,)


def deg_bounded_target(inst: SetSplittingInstance) -> Network:
    """The 3-internal network that reduction_deg_bounded's pair contracts to
    exactly when the instance is splittable."""
    mm = len(inst.sets)
    g = _Builder()
    r, a, b = g.node(), g.node(), g.node()
    g.edges.update([(r, a), (r, b), (a, b)])
    g.leaf("lr", r)
    for lab in ("l1", "l1p", *(f"lS{i + 1}" for i in range(mm))):
        g.leaf(lab, a)
    for lab in ("l2", "l2p", *(f"lS{i + 1}p" for i in range(mm))):
        g.leaf(lab, b)
    return g.network()


def reduction_five_leaves(inst: SetSplittingInstance) -> tuple[Network, Network, int]:
    """Five-leaf hardness pair plus the certifying size k=4: the first network
    contracts to the second (a path of four internal nodes) iff the instance
    is splittable."""
    sets = list(inst.sets)
    elems = list(inst.universe)
    if not sets or not elems:
        raise InvalidParameters("need at least one set and one element")

    g = _Builder()
    a1, s, t, b1 = (g.node() for _ in range(4))
    l1, l2, l3, l4, l4p = (g.leaf(x) for x in ("l1", "l2", "l3", "l4", "l4p"))
    u_s = [g.node() for _ in sets]
    v_s = [g.node() for _ in sets]
    t_x = [g.node() for _ in elems]
    g.edges.update([(a1, l1), (a1, s), (s, l2), (s, t), (t, l3), (t, b1), (b1, l4), (b1, l4p)])
    for j in range(len(elems)):
        g.edges.add((s, t_x[j]))
        g.edges.add((t_x[j], t))
    for i, st in enumerate(sets):
        g.edges.add((a1, u_s[i]))
        g.edges.add((u_s[i], v_s[i]))
        g.edges.add((v_s[i], b1))
        for j, x in enumerate(elems):
            if x in st:
                g.edges.add((u_s[i], t_x[j]))
                g.edges.add((t_x[j], v_s[i]))
    n1 = g.network()
    return _check_same_leaves(n1, five_leaves_target()) + (4,)


def five_leaves_target() -> Network:
    g = _Builder()
    a, b, c, d = (g.node() for _ in range(4))
    g.edges.update([(a, b), (b, c), (c, d)])
    g.leaf("l1", a)
    g.leaf("l2", b)
    g.leaf("l3", c)
    g.leaf("l4", d)
    g.leaf("l4p", d)
    return g.network()


# ---------------------------------------------------------------------------
# random weakly galled trees

Edge = tuple[NodeId, NodeId]


def _random_tree(rng: SplitMix64, labels: list[str]) -> _Builder:
    """Random rooted tree with out-degrees in [2, 4] (single-leaf case: a
    root-leaf edge). Built in pre-order on one stack of (parent, group of
    labels or finished child): a child's edge joins after its subtree, so
    ids, RNG draws and the edge set's insertion order, which its iteration
    order follows, are a depth-first recursion's."""
    g = _Builder()
    if len(labels) == 1:
        g.leaf(labels[0], g.node())
        return g
    stack: list[tuple[NodeId | None, list[str] | NodeId]] = [(None, list(labels))]
    while stack:
        parent, item = stack.pop()
        if not isinstance(item, list):
            g.edges.add((parent, item))
        elif len(item) == 1:
            g.leaf(item[0], parent)
        else:
            u = g.node()
            if parent is not None:
                stack.append((parent, u))
            k = rng.randint(2, min(len(item), 4))
            pool = list(item)
            rng.shuffle(pool)
            cuts = [0, *sorted(rng.sample(range(1, len(pool)), k - 1)), len(pool)]
            for i in range(k, 0, -1):
                stack.append((u, pool[cuts[i - 1] : cuts[i]]))
    return g


def random_wgt(num_leaves: int, num_reticulations: int, seed: int) -> Network:
    """Uniform-ish weakly galled tree with the exact leaf and reticulation
    counts, no internal degree-2 nodes. Deterministic in (arguments)."""
    if num_leaves < 1 or num_reticulations < 0:
        raise InvalidParameters("need num_leaves >= 1, num_reticulations >= 0")
    rng = SplitMix64(seed)
    g = _random_tree(rng, [str(i + 1) for i in range(num_leaves)])
    if not num_reticulations:
        return g.network()
    # All edges start unmarked (on no cycle): up[x] is x's parent along its
    # unmarked in-edge, candidates the sorted unmarked edges.
    up = {v: u for u, v in g.edges}
    pred = {v: [u] for v, u in up.items()}
    edges, candidates = set(g.edges), sorted(g.edges)
    last = _insert_reticulation(rng, pred, up, candidates, g.next_id)
    for _ in range(num_reticulations - 1):
        edges.difference_update(last[:2])
        edges.update(_join_edges(*last))
        last = _insert_reticulation(rng, pred, up, candidates, last[3] + 1)
    # Built from the same set operations as the whole-network test built its
    # last candidate, so node and label orders match that network exactly.
    edges = set(sorted(edges))
    edges.difference_update(last[:2])
    edges |= set(_join_edges(*last))
    net = validate(edges, dict(g.labels))
    if len(net.reticulations()) != num_reticulations or not is_weakly_galled(net):
        raise SelfCheckFailed(
            f"random_wgt({num_leaves}, {num_reticulations}, {seed}) built {net!r}, "
            f"not a weakly galled tree with {num_reticulations} reticulations"
        )
    return net


def _join_edges(e1: Edge, e2: Edge, s1: NodeId, s2: NodeId) -> list[Edge]:
    """The five edges that subdivide e1 by s1 and e2 by s2 and join s1 to s2."""
    return [(e1[0], s1), (s1, e1[1]), (e2[0], s2), (s2, e2[1]), (s1, s2)]


def _reaches(pred: dict[NodeId, list[NodeId]], u: NodeId, v: NodeId) -> bool:
    """Is there a directed path (possibly empty) from u to v? Searched
    upwards from v: ancestors are few in a random tree, descendants many."""
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        if x == u:
            return True
        for p in pred.get(x, ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return False


def _bridge_chain(up: dict[NodeId, NodeId], x: NodeId) -> list[NodeId]:
    """x, then its ancestors reached through unmarked in-edges, bottom-up."""
    chain = [x]
    while chain[-1] in up:
        chain.append(up[chain[-1]])
    return chain


def _new_cycle(
    up: dict[NodeId, NodeId], a: NodeId, b: NodeId, c: NodeId, s1: NodeId, s2: NodeId
) -> list[Edge] | None:
    """Edges of the cycle that subdividing (a, b) by s1 and (c, d) by s2 and
    adding s1 -> s2 closes, or None if the result is not a weakly galled
    tree. Both edges must be unmarked and d must not reach a.

    The new cycle runs along the unique undirected s1-s2 path; the result
    is weakly galled iff that path uses no marked edge and the cycle has a
    single source. Leaving s1 through b and reaching s2 through c, that is
    a directed bridge path b -> ... -> c: b lies on c's bridge chain. Through
    a and c, it is two bridge paths down from one node r: the bridge chains
    of a and c meet, first at r. Through d, the cycle would need a second
    in-degree-2 node reached over bridges only, which a weakly galled tree
    does not have.
    """
    up_c = _bridge_chain(up, c)
    if b in up_c:
        side = up_c[: up_c.index(b) + 1]
        return [(s1, s2), (s1, b), *zip(side[1:], side), (c, s2)]
    up_a = _bridge_chain(up, a)
    on_a = {x: i for i, x in enumerate(up_a)}
    for i, r in enumerate(up_c):
        if r in on_a:
            side_a, side_c = up_a[: on_a[r] + 1], up_c[: i + 1]
            return [
                *zip(side_a[1:], side_a),
                (a, s1),
                (s1, s2),
                *zip(side_c[1:], side_c),
                (c, s2),
            ]
    return None


def _insert_reticulation(
    rng: SplitMix64,
    pred: dict[NodeId, list[NodeId]],
    up: dict[NodeId, NodeId],
    candidates: list[Edge],
    fresh: int,
) -> tuple[Edge, Edge, NodeId, NodeId]:
    """Subdivide two unmarked edges and join the subdividers, keeping the
    result a weakly galled tree; rejection-sampled. Updates `pred`, `up` and
    `candidates` in place and returns (e1, e2, s1, s2): e1 = (a, b) is
    subdivided by s1, e2 = (c, d) by s2, and s1 -> s2 is added.

    A candidate pair is accepted iff b lies on c's bridge chain or the
    bridge chains of a and c meet (see `_new_cycle`); a bridge chain is a
    node plus its ancestors through unmarked in-edges, and the marked edges
    are those of the existing cycles. This makes the same decision as
    building the whole network and testing it with `is_weakly_galled`.
    """
    for _ in range(200):
        if len(candidates) < 2:
            break
        e1, e2 = rng.sample(candidates, 2)
        if _reaches(pred, e2[1], e1[0]):
            e1, e2 = e2, e1  # keep the joining edge forward
        (a, b), (c, d) = e1, e2
        s1, s2 = fresh, fresh + 1
        cycle = _new_cycle(up, a, b, c, s1, s2)
        if cycle is None:
            continue
        pred[s1], pred[s2], pred[b], pred[d] = [a], [c, s1], [s1], [s2]
        new = _join_edges(e1, e2, s1, s2)
        for p, x in (e1, e2, *(e for e in cycle if e not in new)):
            del up[x]
            del candidates[bisect.bisect_left(candidates, (p, x))]
        on_cycle = set(cycle)
        for p, x in new:
            if (p, x) not in on_cycle:
                up[x] = p
                bisect.insort(candidates, (p, x))
        return e1, e2, s1, s2
    raise GenerationFailed(
        f"could not place a reticulation after 200 attempts "
        f"({len(candidates)} free edges)"
    )
