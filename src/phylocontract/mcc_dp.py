"""Polynomial maximum common contraction of two weakly galled trees.

State objects are join subnetworks: compositions of leaf-disjoint prime
pieces hanging from one shared root. A prime is either a dangling subtree
("D", u), everything reachable from u under a fresh root-to-u edge, or a
partially contracted cycle top ("C", cycle, u, v), the remnant of a
reticulation cycle whose arc through the root from u around to v has been
contracted, the fresh root pointing at the two exposed neighbors.

Recurrences:
  f_C compares two compositions: apply the two safe contraction rules
      exhaustively, then match primes by leaf set and sum f_P.
  f_P compares two primes: subtree pairs recurse on their child
      compositions; a subtree against a cycle top either absorbs the whole
      cycle remnant into one node or contracts the dangling edge; two cycle
      tops either contract one of the four root-incident cycle edges or
      agree on a bottom pair (a,b)/(c,d) with equal clade unions, splitting
      the problem into a bottom part and two lateral runs.
  f_L compares two lateral runs: either split both at a leaf-count-matched
      point, or contract each run into a single node and compare the merged
      side networks.

Rules 1 and 2 only ask whether a clade value occurs among the other
composition's 1- and 2-clades. Each network keeps a witness index from clade
values to the nodes and cycle pairs carrying them; a query finds the one prime
that can hold the value and tests those few witnesses against its reach
bitmask, so no clade set is ever built.

Costs count contractions on both sides; the optimum then satisfies
delta = |I1| + |I2| - 2 |I(M)|. A traceback over the memoized choices
rebuilds the witness partitions and the common contraction itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .edit_ops import WitnessStructure, check_witness, quotient
from .errors import Degree2Node, LeafSetMismatch, SelfCheckFailed
from .galled import ReticulationCycle, cycles, has_degree2_node
from .network_core import Network, NodeId, topological_order

__all__ = ["solve", "solve_with_stats", "DpStats"]

INF = float("inf")


@dataclass
class DpStats:
    fc_entries: int
    fp_entries: int
    fl_entries: int


class _NetData:
    """Static per-network tables: clades, cycles, hangs, prefix fingerprints,
    and the witness index behind has_value."""

    def __init__(self, n: Network, cyc: list[ReticulationCycle]):
        self.n = n
        self.d = n.clades()
        node_list = sorted(n.succ)
        self.node_bit = {u: i for i, u in enumerate(node_list)}
        self.node_of_bit = node_list
        internal = set(n.internal_nodes())
        self.internal_mask = sum(1 << self.node_bit[u] for u in internal)

        # reachability and ancestor bitmasks over node indices
        topo = topological_order(n)
        self.reach: dict[NodeId, int] = {}
        for u in reversed(topo):
            bits = 1 << self.node_bit[u]
            for c in n.succ[u]:
                bits |= self.reach[c]
            self.reach[u] = bits
        anc: dict[NodeId, int] = {}
        for u in topo:
            bits = 1 << self.node_bit[u]
            for p in n.pred[u]:
                bits |= anc[p]
            anc[u] = bits

        self.cycles = cyc
        self.order: list[tuple[NodeId, ...]] = []
        self.pos: list[dict[NodeId, int]] = []
        self.rooted_at: dict[NodeId, list[int]] = {}
        self.side_of: dict[NodeId, tuple[int, int, int]] = {}  # node -> (ci, side, idx)
        self.on_child: dict[tuple[int, NodeId], NodeId] = {}
        self.heads: list[tuple[NodeId, NodeId]] = []
        self.pair_of: list[dict[int, tuple[NodeId, NodeId]]] = []
        self.hang: dict[tuple[int, NodeId], int] = {}
        self.pref: list[list[list[int]]] = []  # [ci][side] -> prefix array
        self.pref_idx: list[list[dict[int, int]]] = []

        for ci, c in enumerate(self.cycles):
            order = c.order
            self.order.append(order)
            self.pos.append({u: i for i, u in enumerate(order)})
            self.rooted_at.setdefault(c.root, []).append(ci)
            for side, nodes in ((0, c.side_a), (1, c.side_b)):
                for i, z in enumerate(nodes):
                    self.side_of[z] = (ci, side, i)
                path = [*nodes, c.reticulation]
                for z, nxt in zip(path, path[1:]):
                    self.on_child[(ci, z)] = nxt
            ha = c.side_a[0] if c.side_a else c.reticulation
            hb = c.side_b[0] if c.side_b else c.reticulation
            self.heads.append((ha, hb))

            for z in (*c.side_a, *c.side_b, c.reticulation):
                on = self.on_child.get((ci, z))
                h = 0
                for ch in n.succ[z]:
                    if ch != on:
                        h |= self.d[ch]
                self.hang[(ci, z)] = h

            prefs, prefidx = [], []
            for nodes in (c.side_a, c.side_b):
                arr = [0]
                for z in nodes:
                    h = self.hang[(ci, z)]
                    assert arr[-1] & h == 0, "side hangs must be disjoint"
                    arr.append(arr[-1] | h)
                prefs.append(arr)
                idx = {v: i for i, v in enumerate(arr)}
                assert len(idx) == len(arr), "prefix fingerprints must be distinct"
                prefidx.append(idx)
            self.pref.append(prefs)
            self.pref_idx.append(prefidx)

            pairs: dict[int, tuple[NodeId, NodeId]] = {}
            t = c.reticulation
            for x in (*c.side_a, t):
                for y in (*c.side_b, t):
                    if x == t and y == t:
                        continue
                    bits = self.d[x] | self.d[y]
                    assert bits not in pairs, "two-clade values must be unique"
                    pairs[bits] = (x, y)
            self.pair_of.append(pairs)

        # Witness index: one_wit maps a clade value to the mask of the nodes
        # carrying it; two_wit maps a two-clade value to (cycle, pos x, pos y,
        # cycle root mask) of its pair; leaf_anc maps a leaf's clade bit to
        # the mask of its ancestors.
        self.leaf_anc = {self.d[x]: anc[x] for x in n.leaf_label}
        self.one_wit: dict[int, int] = {}
        for u, i in self.node_bit.items():
            self.one_wit[self.d[u]] = self.one_wit.get(self.d[u], 0) | 1 << i
        self.two_wit: dict[int, list[tuple[int, int, int, int]]] = {}
        for cj, pairs in enumerate(self.pair_of):
            root = 1 << self.node_bit[self.croot(cj)]
            for bits, (x, y) in pairs.items():
                wit = (cj, self.pos[cj][x], self.pos[cj][y], root)
                self.two_wit.setdefault(bits, []).append(wit)

        self._dec_cache: dict[NodeId, tuple] = {}
        self._path_cache: dict[tuple, tuple] = {}
        self._scope_cache: dict[tuple, tuple] = {}

    # -- cyclic geometry ---------------------------------------------------

    def length(self, ci: int) -> int:
        return len(self.order[ci])

    def next_a(self, ci: int, u: NodeId) -> NodeId:
        return self.order[ci][self.pos[ci][u] + 1]

    def next_b(self, ci: int, v: NodeId) -> NodeId:
        o = self.order[ci]
        return o[(self.pos[ci][v] - 1) % len(o)]

    def pos_high(self, ci: int, v: NodeId) -> int:
        """Position of v as the clockwise end: the root wraps to len(order)."""
        p = self.pos[ci][v]
        return p if p else len(self.order[ci])

    def window(self, ci: int, u: NodeId, v: NodeId) -> tuple[NodeId, ...]:
        return self.order[ci][self.pos[ci][u] + 1 : self.pos_high(ci, v)]

    def retic(self, ci: int) -> NodeId:
        return self.cycles[ci].reticulation

    def croot(self, ci: int) -> NodeId:
        return self.cycles[ci].root

    # -- key construction ----------------------------------------------------

    def norm_cycle(self, ci: int, u: NodeId, v: NodeId):
        t = self.retic(ci)
        if self.next_a(ci, u) == t and self.next_b(ci, v) == t:
            return ("D", t)
        return ("C", ci, u, v)

    def node_fragments(self, z: NodeId, skip_on_cycle: int | None = None) -> list:
        """Primes contributed by z's children: a cycle top per cycle rooted
        at z, a dangling per remaining child. skip_on_cycle drops z's
        on-cycle child within that cycle (for absorbed cycle-side nodes)."""
        skip = set()
        if skip_on_cycle is not None:
            on = self.on_child.get((skip_on_cycle, z))
            if on is not None:
                skip.add(on)
        primes = []
        for cj in self.rooted_at.get(z, []):
            primes.append(self.norm_cycle(cj, z, z))
            ha, hb = self.heads[cj]
            skip |= {ha, hb}
        for ch in self.n.succ[z]:
            if ch not in skip:
                primes.append(("D", ch))
        return primes

    def decompose(self, u: NodeId) -> tuple:
        if u not in self._dec_cache:
            self._dec_cache[u] = _sort_comp(self, self.node_fragments(u))
        return self._dec_cache[u]

    def decompose_path(self, ci: int, path: tuple[NodeId, ...]) -> tuple:
        key = (ci, path)
        if key not in self._path_cache:
            frags = []
            for z in path:
                frags.extend(self.node_fragments(z, skip_on_cycle=ci))
            self._path_cache[key] = _sort_comp(self, frags)
        return self._path_cache[key]

    # -- leaf sets -----------------------------------------------------------

    def prime_leafset(self, p) -> int:
        if p[0] == "D":
            return self.d[p[1]]
        _, ci, u, v = p
        return self.d[self.next_a(ci, u)] | self.d[self.next_b(ci, v)]

    def comp_leafset(self, comp: tuple) -> int:
        bits = 0
        for p in comp:
            bits |= self.prime_leafset(p)
        return bits

    # -- clade queries on materializations -----------------------------------

    def _scope(self, p) -> tuple:
        """(node bits, own cycle or -1, window bounds, head masks) of the
        prime's materialization: a cycle top owns positions strictly between
        pos[u] and pos_high(v), and its heads are the two exposed nodes."""
        got = self._scope_cache.get(p)
        if got is None:
            if p[0] == "D":
                heads = (p[1],)
                got = (self.reach[p[1]], -1, 0, 0)
            else:
                _, ci, u, v = p
                heads = (self.next_a(ci, u), self.next_b(ci, v))
                bits = self.reach[heads[0]] | self.reach[heads[1]]
                got = (bits, ci, self.pos[ci][u], self.pos_high(ci, v))
            got += (tuple(1 << self.node_bit[h] for h in heads),)
            self._scope_cache[p] = got
        return got

    def comp_index(self, comp: tuple) -> tuple[int, dict[int, tuple]]:
        """(mask of all heads, head mask -> scope) for the primes of comp."""
        heads = 0
        scope_of = {}
        for p in comp:
            scope = self._scope(p)
            for bit in scope[4]:
                heads |= bit
                scope_of[bit] = scope
        return heads, scope_of

    def has_value(self, index: tuple[int, dict[int, tuple]], q: int) -> bool:
        """Whether q is a one- or two-clade value of some prime's
        materialization in the composition that comp_index indexed.

        Primes are leaf-disjoint and every witness of q reaches the lowest
        leaf of q, so only the prime whose head is an ancestor of that leaf
        can carry q.

        Clades of materialized nodes equal their original clades; a cycle
        counts as such only if its root is inside the materialization
        (broken cycles degrade to tree parts), and a cycle top's own cycle
        contributes only the pairs inside its window.  A side-internal node
        of such a cycle is no 1-clade, but its clade equals its pair with
        the reticulation, so every node in the materialization can witness
        q.  The fresh root's own clade is deliberately left out: rule
        blocking must only see clades witnessed below the root, else no rule
        could ever touch a subnetwork whose value equals the whole leaf
        set."""
        heads, scope_of = index
        hit = self.leaf_anc[q & -q] & heads
        if not hit:
            return False
        bits, own, lo, hi, _ = scope_of[hit & -hit]
        if bits & self.one_wit.get(q, 0):
            return True
        for cj, px, py, root in self.two_wit.get(q, ()):
            if (lo < px and py < hi) if cj == own else bits & root:
                return True
        return False

    def _nodes_of(self, bits: int) -> list[NodeId]:
        out = []
        while bits:
            low = bits & -bits
            out.append(self.node_of_bit[low.bit_length() - 1])
            bits ^= low
        return out

    def internal_count_below(self, u: NodeId) -> int:
        return (self.reach[u] & self.internal_mask).bit_count()

    def internals_below(self, u: NodeId) -> set[NodeId]:
        return set(self._nodes_of(self.reach[u] & self.internal_mask))


def _sort_comp(nd: _NetData, primes: list) -> tuple:
    keyed = []
    for p in primes:
        ls = nd.prime_leafset(p)
        assert ls, "primes carry at least one leaf"
        keyed.append(((ls & -ls).bit_length(), p))
    keyed.sort()
    return tuple(p for _, p in keyed)


class _Solver:
    def __init__(self, n1: Network, n2: Network):
        if n1.leaf_universe != n2.leaf_universe:
            raise LeafSetMismatch(f"{n1.leaf_universe} vs {n2.leaf_universe}")
        cyc = []
        for n in (n1, n2):
            cyc.append(cycles(n))  # raises NotWeaklyGalled
            if has_degree2_node(n):
                raise Degree2Node(repr(n))
        self.nd = (_NetData(n1, cyc[0]), _NetData(n2, cyc[1]))
        self.fc_memo: dict = {}
        self.fp_memo: dict = {}
        self.fl_memo: dict = {}
        self.cands: list[dict] = [{}, {}]

    # -- rule machinery ------------------------------------------------------

    def candidates(self, s: int, comp: tuple) -> list:
        """(node, rule, prime, queries) tuples, NodeId-sorted."""
        cache = self.cands[s]
        if comp not in cache:
            nd = self.nd[s]
            out = []
            for p in comp:
                if p[0] == "D":
                    u = p[1]
                    if u not in nd.n.leaf_label:
                        out.append((u, 1, p, (nd.d[u],)))
                else:
                    _, ci, u, v = p
                    t = nd.retic(ci)
                    win = nd.window(ci, u, v)
                    tpos = nd.pos[ci][t]
                    wa = [z for z in win if nd.pos[ci][z] < tpos]
                    wb = [z for z in win if nd.pos[ci][z] > tpos]
                    for z, others in ((nd.next_a(ci, u), wb), (nd.next_b(ci, v), wa)):
                        if z == t:
                            continue
                        queries = tuple(nd.d[z] | nd.d[y] for y in (*others, t))
                        out.append((z, 2, p, queries))
            out.sort(key=lambda c: c[0])
            cache[comp] = out
        return cache[comp]

    def advance(self, s: int, comp: tuple, prime, z: NodeId) -> tuple:
        """Contract the root edge onto cycle-top child z: advance the key past
        z and spill z's other children as new primes."""
        nd = self.nd[s]
        _, ci, u, v = prime
        if z == nd.next_a(ci, u):
            newp = nd.norm_cycle(ci, z, v)
        else:
            assert z == nd.next_b(ci, v)
            newp = nd.norm_cycle(ci, u, z)
        frags = [q for q in comp if q != prime]
        frags.append(newp)
        frags.extend(nd.node_fragments(z, skip_on_cycle=ci))
        return _sort_comp(nd, frags)

    def rule_step(self, k1: tuple, k2: tuple):
        """First safe contraction under the deterministic schedule, or None."""
        comps = (k1, k2)
        index = [None, None]  # [s]: the other side's comp_index, built on first query
        for rule in (1, 2):
            for s in (0, 1):
                other = self.nd[1 - s]
                for z, kind, prime, queries in self.candidates(s, comps[s]):
                    if kind != rule:
                        continue
                    if index[s] is None:
                        index[s] = other.comp_index(comps[1 - s])
                    if any(other.has_value(index[s], q) for q in queries):
                        continue
                    nd = self.nd[s]
                    if kind == 1:
                        frags = [q for q in comps[s] if q != prime]
                        frags.extend(nd.node_fragments(z))
                        new_comp = _sort_comp(nd, frags)
                    else:
                        new_comp = self.advance(s, comps[s], prime, z)
                    pair = (new_comp, k2) if s == 0 else (k1, new_comp)
                    return s, z, pair
        return None

    # -- recurrences -----------------------------------------------------------

    def fC(self, k1: tuple, k2: tuple):
        key = (k1, k2)
        hit = self.fc_memo.get(key)
        if hit is not None:
            return hit[0]
        self.fc_memo[key] = (INF, None)  # cycle guard; never revisited
        ls1 = self.nd[0].comp_leafset(k1)
        ls2 = self.nd[1].comp_leafset(k2)
        if ls1 != ls2:
            self.fc_memo[key] = (INF, None)
            return INF
        if not k1 and not k2:
            self.fc_memo[key] = (0, ("empty",))
            return 0

        fired = self.rule_step(k1, k2)
        if fired is not None:
            s, z, pair = fired
            val = _add(1, self.fC(*pair))
            self.fc_memo[key] = (val, ("rule", s, z, pair))
            return val

        by_ls1 = {self.nd[0].prime_leafset(p): p for p in k1}
        by_ls2 = {self.nd[1].prime_leafset(p): p for p in k2}
        assert len(by_ls1) == len(k1) and len(by_ls2) == len(k2)
        if set(by_ls1) != set(by_ls2):
            self.fc_memo[key] = (INF, None)
            return INF
        pairs = [(by_ls1[ls], by_ls2[ls]) for ls in sorted(by_ls1)]
        val = 0
        for p1, p2 in pairs:
            val = _add(val, self.fP(p1, p2))
            if val == INF:
                break
        self.fc_memo[key] = (val, ("match", tuple(pairs)))
        return val

    def fP(self, p1, p2):
        key = (p1, p2)
        hit = self.fp_memo.get(key)
        if hit is not None:
            return hit[0]
        self.fp_memo[key] = (INF, None)
        nd1, nd2 = self.nd

        if p1[0] == "D" and p2[0] == "D":
            u, v = p1[1], p2[1]
            u_leaf = u in nd1.n.leaf_label
            v_leaf = v in nd2.n.leaf_label
            if u_leaf and v_leaf:
                out = (0, ("leafleaf",))
            elif u_leaf:
                out = (nd2.internal_count_below(v), ("collapse2", v))
            elif v_leaf:
                out = (nd1.internal_count_below(u), ("collapse1", u))
            else:
                pair = (nd1.decompose(u), nd2.decompose(v))
                out = (self.fC(*pair), ("pairnode", u, v, pair))
        elif p1[0] == "D" and p2[0] == "C":
            out = self._case_mixed(0, p1, p2)
        elif p1[0] == "C" and p2[0] == "D":
            out = self._case_mixed(1, p2, p1)
        else:
            out = self._case_cycles(p1, p2)
        self.fp_memo[key] = out
        return out[0]

    def _case_mixed(self, dside: int, dp, cp):
        """dp = ("D", u) on side dside; cp = cycle top on the other side."""
        nd_d, nd_c = self.nd[dside], self.nd[1 - dside]
        u = dp[1]
        _, ci, v, w = cp
        if u in nd_d.n.leaf_label:
            return (INF, None)
        window = nd_c.window(ci, v, w)
        charge = nd_c.pos_high(ci, w) - nd_c.pos[ci][v] - 2
        assert charge == len(window) - 1

        dec_u = nd_d.decompose(u)
        dec_win = nd_c.decompose_path(ci, window)
        keep_pair = (dec_u, dec_win) if dside == 0 else (dec_win, dec_u)
        keep = _add(charge, self.fC(*keep_pair))

        con_pair = (dec_u, (cp,)) if dside == 0 else ((cp,), dec_u)
        con = _add(1, self.fC(*con_pair))

        if keep <= con:
            return (keep, ("c2keep", dside, u, window, keep_pair))
        return (con, ("c2contract", dside, u, con_pair))

    def _case_cycles(self, p1, p2):
        nd1, nd2 = self.nd
        _, ci, u, v = p1
        _, cj, w, x = p2
        best = (INF, None)

        for s, prime, other in ((0, p1, p2), (1, p2, p1)):
            nd = self.nd[s]
            _, ck, a, b = prime
            t = nd.retic(ck)
            for z in (nd.next_a(ck, a), nd.next_b(ck, b)):
                if z == t:
                    continue  # absorbing the reticulation closes a cycle
                new_comp = self.advance(s, (prime,), prime, z)
                pair = (new_comp, (other,)) if s == 0 else ((other,), new_comp)
                val = _add(1, self.fC(*pair))
                if val < best[0]:
                    best = (val, ("c4contract", s, z, pair))

        t1, t2 = nd1.retic(ci), nd2.retic(cj)
        win1 = nd1.window(ci, u, v)
        p1pos = nd1.pos[ci]
        wa1 = [z for z in win1 if p1pos[z] < p1pos[t1]]
        wb1 = [z for z in win1 if p1pos[z] > p1pos[t1]]
        win2set = set(nd2.window(cj, w, x))
        pair_dict = nd2.pair_of[cj]
        for a in (*wa1, t1):
            for b in (t1, *wb1):
                if not (p1pos[a] <= p1pos[t1] <= p1pos[b]):
                    continue
                target = nd1.d[a] | nd1.d[b]
                cands = []
                got = pair_dict.get(target)
                if got is not None:
                    c, dd = got
                    if (c == t2 or c in win2set) and (dd == t2 or dd in win2set):
                        cands.append((c, dd))
                if nd2.d[t2] == target:
                    cands.append((t2, t2))
                for c, dd in cands:
                    val, info = self._fB(p1, p2, a, b, c, dd)
                    if val < best[0]:
                        best = (val, ("b5", a, b, c, dd, info))
        return best

    def _fB(self, p1, p2, a, b, c, dd):
        """Bottom split: paths a..t1..b and c..t2..d merge into one node;
        laterals pair up straight or crosswise."""
        nd1, nd2 = self.nd
        _, ci, u, v = p1
        _, cj, w, x = p2
        path1 = nd1.order[ci][nd1.pos[ci][a] : nd1.pos[ci][b] + 1]
        path2 = nd2.order[cj][nd2.pos[cj][c] : nd2.pos[cj][dd] + 1]
        cost = (len(path1) - 1) + (len(path2) - 1)
        dec1 = nd1.decompose_path(ci, path1)
        dec2 = nd2.decompose_path(cj, path2)
        bottom = self.fC(dec1, dec2)
        if bottom == INF:
            return INF, None

        ra1 = _run_between(nd1, ci, 0, u, a)
        rb1 = _run_between(nd1, ci, 1, v, b)
        ra2 = _run_between(nd2, cj, 0, w, c)
        rb2 = _run_between(nd2, cj, 1, x, dd)
        straight = _add(self.fL(ra1, ra2), self.fL(rb1, rb2))
        cross = _add(self.fL(ra1, rb2), self.fL(rb1, ra2))
        lat = min(straight, cross)
        pairing = (
            ((ra1, ra2), (rb1, rb2)) if straight <= cross else ((ra1, rb2), (rb1, ra2))
        )
        total = _add(_add(cost, bottom), lat)
        return total, (path1, path2, (dec1, dec2), pairing)

    def fL(self, r1, r2):
        key = (r1, r2)
        hit = self.fl_memo.get(key)
        if hit is not None:
            return hit[0]
        self.fl_memo[key] = (INF, None)
        nd1, nd2 = self.nd
        u1 = _run_union(nd1, r1)
        u2 = _run_union(nd2, r2)
        if u1 != u2:
            self.fl_memo[key] = (INF, None)
            return INF
        if r1 is None and r2 is None:
            self.fl_memo[key] = (0, ("emptyrun",))
            return 0
        assert r1 is not None and r2 is not None

        ci1, s1, lo1, hi1 = r1
        ci2, s2, lo2, hi2 = r2
        best = (INF, None)

        pref2 = nd2.pref[ci2][s2]
        idx2 = nd2.pref_idx[ci2][s2]
        pref1 = nd1.pref[ci1][s1]
        for k in range(lo1, hi1):
            top_union = pref1[k + 1] ^ pref1[lo1]
            target = pref2[lo2] ^ top_union
            got = idx2.get(target)
            if got is None:
                continue
            k2 = got - 1
            if not (lo2 <= k2 < hi2):
                continue
            val = _add(
                self.fL((ci1, s1, lo1, k), (ci2, s2, lo2, k2)),
                self.fL((ci1, s1, k + 1, hi1), (ci2, s2, k2 + 1, hi2)),
            )
            if val < best[0]:
                best = (val, ("split", k, k2))

        nodes1 = _run_nodes(nd1, r1)
        nodes2 = _run_nodes(nd2, r2)
        dec1 = nd1.decompose_path(ci1, nodes1)
        dec2 = nd2.decompose_path(ci2, nodes2)
        val = _add((hi1 - lo1) + (hi2 - lo2), self.fC(dec1, dec2))
        if val < best[0]:
            best = (val, ("fullrun", nodes1, nodes2, (dec1, dec2)))

        self.fl_memo[key] = best
        return best[0]

    # -- traceback ---------------------------------------------------------------

    def trace_fC(self, k1, k2):
        val, choice = self.fc_memo[(k1, k2)]
        assert val != INF and choice is not None
        tag = choice[0]
        if tag == "empty":
            return set(), set(), []
        if tag == "rule":
            _, s, z, pair = choice
            a1, a2, parts = self.trace_fC(*pair)
            (a1 if s == 0 else a2).add(z)
            return a1, a2, parts
        if tag == "match":
            add1, add2, parts = set(), set(), []
            for p1, p2 in choice[1]:
                b1, b2, ps = self.trace_fP(p1, p2)
                add1 |= b1
                add2 |= b2
                parts.extend(ps)
            return add1, add2, parts
        raise AssertionError(tag)

    def trace_fP(self, p1, p2):
        val, choice = self.fp_memo[(p1, p2)]
        assert val != INF and choice is not None
        tag = choice[0]
        if tag == "leafleaf":
            return set(), set(), []
        if tag == "collapse1":
            return self.nd[0].internals_below(choice[1]), set(), []
        if tag == "collapse2":
            return set(), self.nd[1].internals_below(choice[1]), []
        if tag == "pairnode":
            _, u, v, pair = choice
            a1, a2, parts = self.trace_fC(*pair)
            return set(), set(), [({u} | a1, {v} | a2), *parts]
        if tag == "c2keep":
            _, dside, u, window, pair = choice
            a1, a2, parts = self.trace_fC(*pair)
            if dside == 0:
                part = ({u} | a1, set(window) | a2)
            else:
                part = (set(window) | a1, {u} | a2)
            return set(), set(), [part, *parts]
        if tag == "c2contract":
            _, dside, u, pair = choice
            a1, a2, parts = self.trace_fC(*pair)
            (a1 if dside == 0 else a2).add(u)
            return a1, a2, parts
        if tag == "c4contract":
            _, s, z, pair = choice
            a1, a2, parts = self.trace_fC(*pair)
            (a1 if s == 0 else a2).add(z)
            return a1, a2, parts
        if tag == "b5":
            _, a, b, c, dd, info = choice
            path1, path2, decs, pairing = info
            b1, b2, inner = self.trace_fC(*decs)
            parts = [(set(path1) | b1, set(path2) | b2), *inner]
            for r1, r2 in pairing:
                parts.extend(self.trace_fL(r1, r2))
            return set(), set(), parts
        raise AssertionError(tag)

    def trace_fL(self, r1, r2):
        val, choice = self.fl_memo[(r1, r2)]
        assert val != INF and choice is not None
        tag = choice[0]
        if tag == "emptyrun":
            return []
        if tag == "split":
            _, k, k2 = choice
            ci1, s1, lo1, hi1 = r1
            ci2, s2, lo2, hi2 = r2
            return [
                *self.trace_fL((ci1, s1, lo1, k), (ci2, s2, lo2, k2)),
                *self.trace_fL((ci1, s1, k + 1, hi1), (ci2, s2, k2 + 1, hi2)),
            ]
        if tag == "fullrun":
            _, nodes1, nodes2, decs = choice
            a1, a2, parts = self.trace_fC(*decs)
            return [(set(nodes1) | a1, set(nodes2) | a2), *parts]
        raise AssertionError(tag)

    # -- public ---------------------------------------------------------------

    def run(self):
        nd1, nd2 = self.nd
        k1 = nd1.decompose(nd1.n.root)
        k2 = nd2.decompose(nd2.n.root)
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(max(limit, 50000))
            val = self.fC(k1, k2)
            if val == INF:
                raise SelfCheckFailed("no common contraction, not even the star")
            a1, a2, parts = self.trace_fC(k1, k2)
        finally:
            sys.setrecursionlimit(limit)
        parts = [({nd1.n.root} | a1, {nd2.n.root} | a2), *parts]

        p1 = [set(p) for p, _ in parts]
        p2 = [set(q) for _, q in parts]
        m, part_of1 = quotient(nd1.n, p1)
        m2, part_of2 = quotient(nd2.n, p2)
        _check_aligned(m, m2)
        k = len(parts)
        i1 = nd1.n.num_internal
        i2 = nd2.n.num_internal
        if val != (i1 - k) + (i2 - k):
            raise SelfCheckFailed(f"cost {val} but {k} parts of {i1} and {i2} internal nodes")
        w1 = WitnessStructure({g: frozenset(p1[g]) for g in range(k)})
        w2 = WitnessStructure({g: frozenset(p2[g]) for g in range(k)})
        check_witness(nd1.n, m, w1)
        check_witness(nd2.n, m, w2)
        delta = i1 + i2 - 2 * k
        return delta, m, w1, w2

    def stats(self) -> DpStats:
        return DpStats(
            fc_entries=len(self.fc_memo),
            fp_entries=len(self.fp_memo),
            fl_entries=len(self.fl_memo),
        )


def _add(a, b):
    if a == INF or b == INF:
        return INF
    return a + b


def _run_between(nd: _NetData, ci: int, side: int, top: NodeId, bottom: NodeId):
    """Side-local run strictly between the arc node `top` (cycle root allowed)
    and the path node `bottom` (reticulation allowed), or None if empty."""
    c = nd.cycles[ci]
    nodes = c.side_a if side == 0 else c.side_b
    lo = 0 if top == c.root else nd.side_of[top][2] + 1
    hi = len(nodes) - 1 if bottom == c.reticulation else nd.side_of[bottom][2] - 1
    if lo > hi:
        return None
    return (ci, side, lo, hi)


def _run_union(nd: _NetData, run) -> int:
    if run is None:
        return 0
    ci, side, lo, hi = run
    pref = nd.pref[ci][side]
    return pref[hi + 1] ^ pref[lo]


def _run_nodes(nd: _NetData, run) -> tuple[NodeId, ...]:
    ci, side, lo, hi = run
    c = nd.cycles[ci]
    nodes = c.side_a if side == 0 else c.side_b
    return tuple(nodes[lo : hi + 1])


def _check_aligned(m1: Network, m2: Network):
    internal1 = {
        (u, v)
        for u, v in m1.edges()
        if u not in m1.leaf_label and v not in m1.leaf_label
    }
    internal2 = {
        (u, v)
        for u, v in m2.edges()
        if u not in m2.leaf_label and v not in m2.leaf_label
    }
    if internal1 != internal2:
        raise SelfCheckFailed("quotients disagree on internal edges")
    lp1 = {m1.leaf_label[x]: m1.pred[x][0] for x in m1.leaf_label}
    lp2 = {m2.leaf_label[x]: m2.pred[x][0] for x in m2.leaf_label}
    if lp1 != lp2:
        raise SelfCheckFailed("quotients disagree on leaf attachment")


def solve(n1: Network, n2: Network):
    """Maximum common contraction of two weakly galled trees without internal
    degree-2 nodes. Returns (delta, m, witness1, witness2)."""
    return _Solver(n1, n2).run()


def solve_with_stats(n1: Network, n2: Network):
    s = _Solver(n1, n2)
    result = s.run()
    return result, s.stats()
