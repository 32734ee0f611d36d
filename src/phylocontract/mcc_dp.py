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

Every f_C key pairs two compositions on one leaf set, so f_C never
compares leaf sets. The root compositions share the universe `_Solver`
checks; f_P opens primes matched by leaf set; a rule firing or a contracted
cycle edge keeps its composition's leaf set; a dangling subtree stays
paired with the cycle top it was matched with; a bottom pair has equal
clade unions; and a full run is compared only after f_L's union check. Were
a key ever to break this, matching primes by leaf set would still give INF.

Rules 1 and 2 have one engine, `_Solver.cascade`, which fires the safe
contractions of a composition pair to their fixed point in schedule order:
Rule 1 before Rule 2, side 0 before side 1, lowest node first. fC makes one
entry per cascade, worth its firings plus the match of the fixed point, and
`apply_rules` replays a cascade from the root compositions to reduce two
whole networks. A rule only asks whether a clade value occurs among the
other composition's 1- and 2-clades. Each network's witnesses come from its
`galled.build_clade_index`: a value's 1-clade nodes and its one cycle
pair. A query tests the nodes' bits against one node mask per composition,
the union of its primes' reach bitmasks, and a pair of a cycle with a top
in the composition against that top's window, so no clade set is ever
built. The union answers as each prime alone would: primes are
leaf-disjoint, a composition holds at most one top per cycle, and a cycle
with a top in the composition has its root outside it.
A cascade keeps one heap of candidates per (rule, side) slot, filled from
its starting compositions, pops a slot to its least enabled candidate, and
pushes onto the slots the candidates of the primes each firing makes. A
popped candidate, blocked or dead, is never looked at again. A firing on
side s replaces a prime by pieces of its own materialization, so it adds no
value to side s, and it removes only values among its own queries; none of
them is a value of side 1 - s, since the firing was enabled, and every
query of a candidate is a value of the candidate's own side. So no answer
to a query of side 1 - s changes: no surviving candidate changes status, a
blocked one stays blocked, only the candidates of the primes a firing makes
need a check, and the index of the composition the cascade started from
still answers every query. This rests on has_value's witnesses, which hold
because no dangling prime's head is side-internal.

Costs count contractions on both sides; the optimum then satisfies
delta = |I1| + |I2| - 2 |I(M)|. Each memoized choice is its traceback
record: the branch's tag, the nodes it merges on each side, whether it opens
a new part, and the sub-entries to follow. The traceback reads these records
to rebuild the witness partitions, and `edit_ops.common_contraction` turns
them into the result: it quotients the first network by them, checks both
witnesses and gives delta, which must equal the optimum's cost.

Evaluation and traceback run on explicit stacks: each recurrence is a
generator that yields the sub-entries it needs to one memo driver, so
neither depends on Python's recursion limit; nor does any other part of the
package, the eNewick parser included.

Where a recurrence chooses among alternatives, the choice is the first
strict minimum in a fixed order, but not every alternative is evaluated:
each carries a lower bound, and they run cheapest bound first until no
bound left can beat the best value or tie it at an earlier position. Every
entry's value is c1 + c2 for a common contraction that makes c1 and c2
contractions on materializations of I1 and I2 internal nodes, with
I1 - c1 = I2 - c2. An alternative that makes f1 and f2 contractions itself
therefore costs at least f1 + f2 + |(I1 - f1) - (I2 - f2)|: its own charge
plus the internal-count imbalance left after it. A lateral split costs at
least the imbalances of its two halves. A contraction that leaves two or
more primes on one side against a single prime on the other forces a
contraction on the other side too: rule firings never lower a
composition's prime count, and f_C matches primes one to one. So a
contracted cycle-top edge, whose head keeps a hang beside the advanced top,
and a contracted dangling edge whose head splits into two or more primes
each cost at least 2 + |I1 - I2|.

Two stops save building alternatives, not only evaluating them. f_L
builds its splits in position order and returns the first whose value
reaches the floor |I1 - I2|, which no alternative can beat. A pair of cycle
tops builds its bottom pairs by p1's path length, (t1, t1) first, and
builds no more once that length alone, with the imbalance it leaves,
exceeds the best value. Memo values depend only on their keys and every
sub-entry is strictly smaller than its entry, so the order of evaluation
cannot change a value, and the stored choices, delta and witnesses are
those of the exhaustive scan; only the memo tables shrink.

Subtrees the two networks share cost nothing to compare. Every internal
node with no reticulation at or below it gets an id from an intern table
both networks share, keyed by its clade and its internal children's ids,
so equal ids mean equal subtrees. f_P answers 0 for two dangling subtrees
with equal ids without opening them, and the traceback expands that answer
into the parts the full recursion would open, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush

from .edit_ops import common_contraction, contract_admissible
from .errors import Degree2Node, LeafSetMismatch, SelfCheckFailed
from .galled import CladeIndex, build_clade_index
from .network_core import Network, NodeId, _mask_nodes, topological_order

__all__ = ["solve", "solve_with_stats", "DpStats", "apply_rules"]

INF = float("inf")
_SLOTS = ((1, 0), (1, 1), (2, 0), (2, 1))  # (rule, side) in schedule order


@dataclass
class DpStats:
    fc_entries: int
    fp_entries: int
    fl_entries: int


class _NetData:
    """Static per-network tables: clades, cycles, prefix fingerprints, and
    the witnesses behind has_value, all read off the network's clade index.
    reach and internal_mask are its only node-indexed masks."""

    def __init__(self, n: Network, idx: CladeIndex, intern: dict):
        self.n = n
        self.d = idx.d
        node_list = sorted(n.succ)
        node_bit = self.node_bit = {u: i for i, u in enumerate(node_list)}
        self.node_of_bit = node_list

        # One sweep, leaves before their parents, builds three tables:
        # - reach: the bits of the nodes an internal node reaches, itself
        #   included; a leaf reaches only its own bit, which is computed
        #   where it is needed instead of stored;
        # - internal_mask: the internal nodes' bits;
        # - tree_id: an id per internal node with no reticulation at or
        #   below it, from the intern table both networks share, keyed by
        #   (clade, sorted ids of the internal children): equal ids mean
        #   equal clade sets, so the two subtrees are equal.
        reach: dict[NodeId, int] = {}
        tree_id: dict[NodeId, int] = {}
        internal_mask = 0
        for u in reversed(topological_order(n)):
            kids = n.succ[u]
            if not kids:
                continue
            bits = 1 << node_bit[u]
            internal_mask |= bits
            ids = []
            for c in kids:
                below = reach.get(c)
                if below is None:  # a leaf
                    bits |= 1 << node_bit[c]
                else:
                    bits |= below
                    ids.append(tree_id.get(c))
            reach[u] = bits
            if len(n.pred[u]) < 2 and None not in ids:
                tree_id[u] = intern.setdefault((self.d[u], tuple(sorted(ids))), len(intern))
        self.reach = reach
        self.tree_id = tree_id
        self.internal_mask = internal_mask

        self.cycles = idx.cycles
        self.order: list[tuple[NodeId, ...]] = []
        self.pos: list[dict[NodeId, int]] = []
        self.rooted_at: dict[NodeId, list[int]] = {}
        self.side_of: dict[NodeId, tuple[int, int, int]] = {}  # node -> (ci, side, idx)
        self.on_child: dict[tuple[int, NodeId], NodeId] = {}
        self.pref: list[list[list[int]]] = []  # [ci][side] -> prefix array
        self.pref_idx: list[list[dict[int, int]]] = []
        self.ipref: list[list[list[int]]] = []  # [ci][side] -> internal-count prefixes

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

            hang = {}  # cycle node -> leaf set of its hang
            below = {}  # cycle node -> internal nodes in its hang
            for z in (*c.side_a, *c.side_b, c.reticulation):
                on = self.on_child.get((ci, z))
                h = hang_nodes = 0
                for ch in n.succ[z]:
                    if ch != on:
                        h |= self.d[ch]
                        hang_nodes |= reach.get(ch, 0)  # a leaf adds no internal node
                hang[z] = h
                below[z] = (hang_nodes & internal_mask).bit_count()

            # Hangs are non-empty (no degree-2 nodes) and leaf-disjoint
            # (cycles are edge-disjoint), so the prefixes strictly grow and
            # each prefix value names one position. ipref counts the
            # internal nodes of a run: its side nodes and their hangs.
            prefs, prefidx, iprefs = [], [], []
            for nodes in (c.side_a, c.side_b):
                arr, counts = [0], [0]
                for z in nodes:
                    arr.append(arr[-1] | hang[z])
                    counts.append(counts[-1] + 1 + below[z])
                prefs.append(arr)
                prefidx.append({v: i for i, v in enumerate(arr)})
                iprefs.append(counts)
            self.pref.append(prefs)
            self.pref_idx.append(prefidx)
            self.ipref.append(iprefs)

        # Witnesses: one_clades maps a 1-clade value to its nodes, as the
        # clade index lists them; two_wit maps a 2-clade value to
        # (cycle, pos x, pos y) of its one pair, pos x < pos y.
        self.one_clades = idx.one_clades
        self.two_wit: dict[int, tuple[int, int, int]] = {}
        for bits, ((x, y),) in idx.two_clades.items():
            cj = self.side_of[x if x in self.side_of else y][0]
            px, py = self.pos[cj][x], self.pos[cj][y]
            self.two_wit[bits] = (cj, px, py) if px < py else (cj, py, px)

    # -- cyclic geometry ---------------------------------------------------

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

    def window_sides(self, ci: int, u: NodeId, v: NodeId) -> tuple[tuple, tuple]:
        """The window's nodes above the reticulation on side a and on side
        b: a cycle top's window always holds its reticulation."""
        o, t = self.order[ci], self.pos[ci][self.retic(ci)]
        return o[self.pos[ci][u] + 1 : t], o[t + 1 : self.pos_high(ci, v)]

    def retic(self, ci: int) -> NodeId:
        return self.cycles[ci].reticulation

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
            skip |= {self.order[cj][1], self.order[cj][-1]}  # the cycle's heads
        for ch in self.n.succ[z]:
            if ch not in skip:
                primes.append(("D", ch))
        return primes

    def decompose(self, u: NodeId) -> tuple:
        return _sort_comp(self, self.node_fragments(u))

    def advanced(self, prime, z: NodeId) -> list:
        """The primes that replace `prime` once its root edge is contracted
        onto z, one of its heads: z's children, and for a cycle top the top
        advanced past z, whose on-cycle child it keeps."""
        if prime[0] == "D":
            return self.node_fragments(z)
        _, ci, u, v = prime
        ends = (z, v) if z == self.next_a(ci, u) else (u, z)
        return [self.norm_cycle(ci, *ends), *self.node_fragments(z, skip_on_cycle=ci)]

    def decompose_path(self, ci: int, path: tuple[NodeId, ...]) -> tuple:
        frags = []
        for z in path:
            frags.extend(self.node_fragments(z, skip_on_cycle=ci))
        return _sort_comp(self, frags)

    # -- leaf sets -----------------------------------------------------------

    def prime_leafset(self, p) -> int:
        if p[0] == "D":
            return self.d[p[1]]
        _, ci, u, v = p
        return self.d[self.next_a(ci, u)] | self.d[self.next_b(ci, v)]

    # -- clade queries on materializations -----------------------------------

    def _scope(self, p) -> int:
        """Node bits of the prime's materialization: all its heads reach. A
        cycle top's heads are internal; a dangling leaf is its own bit."""
        if p[0] == "D":
            u = p[1]
            return self.reach[u] if u in self.reach else 1 << self.node_bit[u]
        _, ci, u, v = p
        return self.reach[self.next_a(ci, u)] | self.reach[self.next_b(ci, v)]

    def comp_index(self, comp: tuple) -> tuple[int, dict[int, tuple[int, int]]]:
        """(node bits of all of comp's primes, cycle -> window bounds of its
        top in comp): a cycle top owns the positions strictly between pos[u]
        and pos_high(v)."""
        bits = 0
        tops = {}
        for p in comp:
            bits |= self._scope(p)
            if p[0] == "C":
                _, ci, u, v = p
                tops[ci] = (self.pos[ci][u], self.pos_high(ci, v))
        return bits, tops

    def has_value(self, index: tuple[int, dict[int, tuple[int, int]]], q: int) -> bool:
        """Whether q is a one- or two-clade value of some prime's
        materialization in the composition that comp_index indexed.

        Testing the union of the primes' node bits answers for each prime
        alone: primes are leaf-disjoint, and every witness of q inside a
        materialization brings q's leaves with it, so it lies in the one
        prime that holds them. A pair of cycle cj counts only inside its
        top's window when cj has a top in the composition, else only where
        cj's root is in the union. This rests on two premises: a
        composition holds at most one top per cycle, and a cycle with a top
        in the composition has its root outside it, so no other prime
        carries that cycle's pairs.

        Clades of materialized nodes equal their original clades; a cycle
        counts as such only if its root is inside the materialization
        (broken cycles degrade to tree parts), and a cycle top's own cycle
        contributes only the pairs inside its window.  The witnesses are
        the network's 1-clade nodes and 2-clade pairs, so side-internal
        nodes are not among the 1-clade witnesses.  That loses nothing: in
        every materialization built here, a side-internal node either still
        has its cycle root or lies in the window of its own cycle top, and
        either way its pair with the reticulation, whose clade equals the
        node's, is a 2-clade witness of q.  The fresh root's own clade is
        deliberately left out: rule blocking must only see clades witnessed
        below the root, else no rule could ever touch a subnetwork whose
        value equals the whole leaf set."""
        bits, tops = index
        for u in self.one_clades.get(q, ()):
            if bits >> self.node_bit[u] & 1:
                return True
        wit = self.two_wit.get(q)
        if wit is None:
            return False
        cj, px, py = wit
        window = tops.get(cj)
        if window is not None:
            return window[0] < px and py < window[1]
        return bool(bits >> self.node_bit[self.cycles[cj].root] & 1)

    def prime_internal(self, p) -> int:
        """Internal nodes of the prime's materialization, fresh root aside."""
        return (self._scope(p) & self.internal_mask).bit_count()

    def internals_below(self, u: NodeId) -> set[NodeId]:
        return set(_mask_nodes(self.node_of_bit, self.reach[u] & self.internal_mask))


def _sort_comp(nd: _NetData, primes: list) -> tuple:
    keyed = []
    for p in primes:
        ls = nd.prime_leafset(p)
        if not ls:
            raise SelfCheckFailed(f"prime {p} carries no leaf")
        keyed.append(((ls & -ls).bit_length(), p))
    keyed.sort()
    return tuple(p for _, p in keyed)


class _Solver:
    def __init__(self, n1: Network, n2: Network):
        if n1.leaf_universe != n2.leaf_universe:
            raise LeafSetMismatch(f"{n1.leaf_universe} vs {n2.leaf_universe}")
        idx = []
        for n in (n1, n2):
            idx.append(build_clade_index(n))  # raises NotWeaklyGalled
            if idx[-1].has_degree2:
                raise Degree2Node(repr(n))
        intern: dict = {}
        self.nd = (_NetData(n1, idx[0], intern), _NetData(n2, idx[1], intern))
        self.fc_memo: dict = {}
        self.fp_memo: dict = {}
        self.fl_memo: dict = {}
        self.memos = {"C": self.fc_memo, "P": self.fp_memo, "L": self.fl_memo}

    # -- rule machinery ------------------------------------------------------

    def prime_candidates(self, s: int, p) -> list:
        """(node, rule, prime, queries) of each head of prime p on side s
        that a rule may contract: a dangling subtree's internal head for
        Rule 1, a cycle top's heads other than its reticulation for Rule 2."""
        nd = self.nd[s]
        out = []
        if p[0] == "D":
            if p[1] not in nd.n.leaf_label:
                out.append((p[1], 1, p, (nd.d[p[1]],)))
        else:
            _, ci, u, v = p
            t = nd.retic(ci)
            wa, wb = nd.window_sides(ci, u, v)
            for z, others in ((nd.next_a(ci, u), wb), (nd.next_b(ci, v), wa)):
                if z != t:
                    out.append((z, 2, p, tuple(nd.d[z] | nd.d[y] for y in (*others, t))))
        return out

    def advance(self, s: int, comp: tuple, prime, z: NodeId) -> tuple:
        """Contract the root edge onto z, a head of `prime` in comp (side s):
        the primes `advanced` gives replace it."""
        nd = self.nd[s]
        return _sort_comp(nd, [q for q in comp if q != prime] + nd.advanced(prime, z))

    def cascade(self, k1: tuple, k2: tuple, skip: int | None = None):
        """Rules 1 and 2 fired from (k1, k2) to their fixed point: each
        firing is the least enabled candidate by (rule, side, node) of the
        pair it fires on, where a candidate is enabled if none of its
        queries is a value of the other side, nor skip. Returns the firings
        as (side, node, rule, prime) and the fixed point pair.

        Each (rule, side) slot keeps one heap of candidates by node, filled
        from the starting compositions' primes; a firing pushes the
        candidates of the primes it makes onto their slots. A slot pops to
        its least enabled candidate, and a blocked or dead one stays popped:
        a blocked candidate stays blocked, and each side's comp_index, built
        from its starting composition, serves the whole cascade (see the
        module docstring). The fixed point is sorted once, on each side that
        fired."""
        comps = (k1, k2)
        heaps = ([], [], [], [])  # [2 * (rule - 1) + side]: candidates by node
        for s in (0, 1):
            for p in comps[s]:
                for c in self.prime_candidates(s, p):
                    heappush(heaps[2 * (c[1] - 1) + s], c)
        live: list = [None, None]  # [side]: its primes, once it has fired
        index: list = [None, None]  # [side]: comp_index of comps[side]
        fired = []
        slot = 0
        while slot < 4:
            rule, s = _SLOTS[slot]
            heap, alive, o = heaps[slot], live[s], 1 - s
            has_value = self.nd[o].has_value
            while heap:  # to this slot's least enabled candidate, if any
                z, _, prime, queries = heappop(heap)
                if (alive is not None and prime not in alive) or skip in queries:
                    continue
                if index[o] is None:
                    index[o] = self.nd[o].comp_index(comps[o])
                if not any(has_value(index[o], q) for q in queries):
                    break
            else:
                slot += 1
                continue
            fired.append((s, z, rule, prime))
            if alive is None:
                alive = live[s] = set(comps[s])
            made = self.nd[s].advanced(prime, z)
            alive.remove(prime)
            alive.update(made)
            for p in made:
                for c in self.prime_candidates(s, p):
                    heappush(heaps[2 * (c[1] - 1) + s], c)
            slot = 0
        point = tuple(
            comps[s] if live[s] is None else _sort_comp(self.nd[s], live[s]) for s in (0, 1)
        )
        return fired, point

    # -- recurrences -----------------------------------------------------------
    #
    # Each recurrence is a generator: it yields (table, key) to ask for a
    # sub-entry's value, receives that value back, and returns (value,
    # choice). _evaluate owns the memo tables and the stack.

    def _evaluate(self, table: str, key: tuple):
        """Value of one entry. Every entry on the way is memoized.

        Evaluation order cannot change any value: a memo value is a pure
        function of its key, and every sub-entry an entry asks for is
        strictly smaller than the entry, so no entry is ever asked for
        while it is still open. That is what lets
        _first_min skip alternatives and evaluate the rest out of list
        order. The INF placeholder written on opening would only be read if
        that argument failed."""
        memos = self.memos
        steps = {"C": self.fC, "P": self.fP, "L": self.fL}
        stack = []  # open entries, innermost last: (memo, key, generator)
        while True:
            memo = memos[table]
            hit = memo.get(key)
            if hit is None:
                memo[key] = (INF, None)  # placeholder until the entry closes
                gen = steps[table](*key)
                stack.append((memo, key, gen))
                value = None  # starts the new generator
            elif stack:
                value = hit[0]
            else:
                return hit[0]
            while True:
                try:
                    table, key = gen.send(value)
                    break
                except StopIteration as done:
                    memo, entry, _ = stack.pop()
                    memo[entry] = done.value
                    value = done.value[0]
                    if not stack:
                        return value
                    gen = stack[-1][2]

    def _first_min(self, alts: list, groups=()):
        """The first strict minimum among alternatives, without evaluating
        the ones that cannot be it, nor building those that come in groups.

        alts lists (lower bound, thunk) in tie-break order; a thunk returns
        a recurrence-style generator whose value is at least its bound.
        groups yields more alternatives as (floor, [(bound, position,
        thunk)]): floors never decrease and none exceeds its group's
        bounds, and positions come after those of alts, in tie-break order.
        Thunks run by (bound, position), and the scan stops at the first one
        whose (bound, position) exceeds the best (value, position) so far:
        neither it nor any later one can be smaller, or equal at an earlier
        position. A group is built only once its floor is at most the best
        value and the least bound built, so every alternative runs as it
        would had all been built first, and the scan stops without the
        groups whose floor exceeds the best value. The result is the minimum
        of (value, position), exactly what an exhaustive scan that keeps the
        first strict minimum returns; (INF, None) when every value is INF."""
        heap = [(bound, i, thunk) for i, (bound, thunk) in enumerate(alts)]
        heapify(heap)
        groups = iter(groups)
        group = next(groups, None)
        best, choice = (INF, -1), None
        while True:
            while group is not None and group[0] <= min(best[0], heap[0][0] if heap else INF):
                for alt in group[1]:
                    heappush(heap, alt)
                group = next(groups, None)
            if not heap:
                break
            bound, i, thunk = heappop(heap)
            if (bound, i) > best:
                break
            val, got = yield from thunk()
            if (val, i) < best:
                best, choice = (val, i), got
        return best[0], choice

    def _sum(self, charge: int, subs, choice):
        """charge plus the values of the sub-entries subs, as (value,
        choice); stops asking at the first INF."""
        val = charge
        for sub in subs:
            val += yield sub
            if val == INF:
                break
        return val, choice

    def fC(self, k1: tuple, k2: tuple):
        fired, (f1, f2) = self.cascade(k1, k2)
        by_ls1 = {self.nd[0].prime_leafset(p): p for p in f1}
        by_ls2 = {self.nd[1].prime_leafset(p): p for p in f2}
        if len(by_ls1) != len(f1) or len(by_ls2) != len(f2):
            raise SelfCheckFailed(f"primes share a leaf set: {f1} vs {f2}")
        if set(by_ls1) != set(by_ls2):
            return INF, None
        nodes: tuple[list, list] = ([], [])
        for s, z, *_ in fired:
            nodes[s].append(z)
        subs = tuple(("P", (by_ls1[ls], by_ls2[ls])) for ls in sorted(by_ls1))
        match = ("match", tuple(nodes[0]), tuple(nodes[1]), False, subs)
        return (yield from self._sum(len(fired), subs, match))

    def fP(self, p1, p2):
        nd1, nd2 = self.nd
        if p1[0] == "D" and p2[0] == "D":
            u, v = p1[1], p2[1]
            u_leaf = u in nd1.n.leaf_label
            v_leaf = v in nd2.n.leaf_label
            if u_leaf and v_leaf:
                return 0, ("leafleaf", (), (), False, ())
            if u_leaf:
                below = nd2.internals_below(v)
                return len(below), ("collapse2", (), below, False, ())
            if v_leaf:
                below = nd1.internals_below(u)
                return len(below), ("collapse1", below, (), False, ())
            tid = nd1.tree_id.get(u)
            if tid is not None and tid == nd2.tree_id.get(v):
                return 0, ("shared", (), (), False, (("S", (u, v)),))
            subs = (("C", (nd1.decompose(u), nd2.decompose(v))),)
            return (yield from self._sum(0, subs, ("pairnode", (u,), (v,), True, subs)))
        if p1[0] == "D":
            return (yield from self._case_mixed(0, p1, p2))
        if p2[0] == "D":
            return (yield from self._case_mixed(1, p2, p1))
        return (yield from self._case_cycles(p1, p2))

    def _case_mixed(self, dside: int, dp, cp):
        """dp = ("D", u) on side dside; cp = cycle top on the other side.
        Keeping the window costs one contraction per window edge, and wins
        ties against contracting the dangling edge. Where u decomposes into
        two or more primes, contracting the dangling edge forces a firing on
        cp's side too, as with a contracted cycle top (see _case_cycles),
        so it costs at least 2 + |I(u) - I(cp)|."""
        nd_d, nd_c = self.nd[dside], self.nd[1 - dside]
        u = dp[1]
        _, ci, v, w = cp
        if u in nd_d.n.leaf_label:
            return (INF, None)
        window = nd_c.window(ci, v, w)
        dec_u = nd_d.decompose(u)
        dec_win = nd_c.decompose_path(ci, window)
        keep_subs = (("C", (dec_u, dec_win) if dside == 0 else (dec_win, dec_u)),)
        con_subs = (("C", (dec_u, (cp,)) if dside == 0 else ((cp,), dec_u)),)
        keep_nodes = ((u,), window) if dside == 0 else (window, (u,))
        keep = ("c2keep", *keep_nodes, True, keep_subs)
        con = ("c2contract", *_on_side(dside, (u,)), False, con_subs)
        charge = len(window) - 1
        i_u, i_c = nd_d.prime_internal(dp), nd_c.prime_internal(cp)
        forced = 1 if len(dec_u) > 1 else 0  # cp's side must fire too
        alts = [
            (_bound(0, charge, i_u, i_c), partial(self._sum, charge, keep_subs, keep)),
            (_bound(1, forced, i_u, i_c), partial(self._sum, 1, con_subs, con)),
        ]
        return (yield from self._first_min(alts))

    def _case_cycles(self, p1, p2):
        """Two cycle tops: contract one of the four root-incident cycle
        edges, or agree on a bottom pair, whose bottom paths alone cost
        their edge counts.

        A contracted edge costs at least 2 + |I1 - I2|. Its head z is a
        side node, of in-degree 1, so without degree-2 nodes z has a child
        off the cycle: the contracted side holds at least two primes, the
        advanced top and z's hang, against the other side's one prime on
        the same leaf set. Rule firings never lower a composition's prime
        count, so the fC entry is finite only if its cascade fires on the
        other side too: both sides contract at least once.

        The bottom pairs come outward from the reticulation, by p1's path
        length, (t1, t1) first, each keeping its position in the row-major
        scan of p1's window; _first_min stops building them once the path
        length alone, with the imbalance it leaves, exceeds the best
        value."""
        nd1, nd2 = self.nd
        i1, i2 = nd1.prime_internal(p1), nd2.prime_internal(p2)
        bound = _bound(1, 1, i1, i2)
        alts = []
        for s, prime, other in ((0, p1, p2), (1, p2, p1)):
            nd = self.nd[s]
            _, ck, a, b = prime
            t = nd.retic(ck)
            for z in (nd.next_a(ck, a), nd.next_b(ck, b)):
                if z != t:  # absorbing the reticulation closes a cycle
                    alts.append((bound, partial(self._contract_top, s, prime, other, z)))
        bottoms = self._bottom_pairs(p1, p2, i1, i2, len(alts))
        return (yield from self._first_min(alts, bottoms))

    def _bottom_pairs(self, p1, p2, i1: int, i2: int, first: int):
        """_case_cycles' bottom-pair alternatives in groups of one p1 path
        length, shortest first, as _first_min takes them. a ranges over
        `above`, p1's window on side a then t1, and b over `below`, t1 then
        the window on side b; pair (ia, ib) keeps position
        first + ia * nb + ib of the row-major scan. A group's floor is the
        bound of its path length alone."""
        nd1, nd2 = self.nd
        _, ci, u, v = p1
        _, cj, w, x = p2
        t1, t2 = nd1.retic(ci), nd2.retic(cj)
        wa1, wb1 = nd1.window_sides(ci, u, v)
        above, below = (*wa1, t1), (t1, *wb1)
        na, nb = len(above), len(below)
        p2pos = nd2.pos[cj]
        lo2, hi2 = p2pos[w], nd2.pos_high(cj, x)
        for length in range(na + nb - 1):
            group = []
            for ib in range(max(0, length - na + 1), min(length, nb - 1) + 1):
                ia = na - 1 - length + ib
                a, b = above[ia], below[ib]
                target = nd1.d[a] | nd1.d[b]
                # the pair of cycle cj inside p2's window that carries target,
                # else t2 alone: no such pair carries t2's own clade
                got = nd2.two_wit.get(target)
                if got is not None and got[0] == cj and lo2 < got[1] and got[2] < hi2:
                    c, dd = nd2.order[cj][got[1]], nd2.order[cj][got[2]]
                elif nd2.d[t2] == target:
                    c = dd = t2
                else:
                    continue
                bound = _bound(length, p2pos[dd] - p2pos[c], i1, i2)
                group.append((bound, first + ia * nb + ib, partial(self._fB, p1, p2, a, b, c, dd)))
            yield _bound(length, 0, i1, i2), group

    def _contract_top(self, s: int, prime, other, z: NodeId):
        """Contract the root edge of cycle top `prime` (side s) onto z."""
        new_comp = self.advance(s, (prime,), prime, z)
        subs = (("C", (new_comp, (other,)) if s == 0 else ((other,), new_comp)),)
        return (yield from self._sum(1, subs, ("c4contract", *_on_side(s, (z,)), False, subs)))

    def _fB(self, p1, p2, a, b, c, dd):
        """Bottom split: paths a..t1..b and c..t2..d merge into one node;
        laterals pair up straight or crosswise, straight winning ties."""
        nd1, nd2 = self.nd
        _, ci, u, v = p1
        _, cj, w, x = p2
        path1 = nd1.order[ci][nd1.pos[ci][a] : nd1.pos[ci][b] + 1]
        path2 = nd2.order[cj][nd2.pos[cj][c] : nd2.pos[cj][dd] + 1]
        cost = (len(path1) - 1) + (len(path2) - 1)
        decs = (nd1.decompose_path(ci, path1), nd2.decompose_path(cj, path2))
        bottom = yield "C", decs
        if bottom == INF:
            return INF, None

        ra1 = _run_between(nd1, ci, 0, u, a)
        rb1 = _run_between(nd1, ci, 1, v, b)
        ra2 = _run_between(nd2, cj, 0, w, c)
        rb2 = _run_between(nd2, cj, 1, x, dd)
        straight = ((ra1, ra2), (rb1, rb2))
        cross = ((ra1, rb2), (rb1, ra2))
        alts = []
        for pr in (straight, cross):
            subs = tuple(("L", q) for q in pr)
            alts.append((self._imbalance(pr), partial(self._sum, 0, subs, subs)))
        lat, pairing = yield from self._first_min(alts)
        if pairing is None:
            return INF, None
        return cost + bottom + lat, ("b5", path1, path2, True, (("C", decs), *pairing))

    def _imbalance(self, run_pairs) -> int:
        """Lower bound on the fL values of run pairs: their internal-count
        imbalances."""
        nd1, nd2 = self.nd
        return sum(abs(_run_internal(nd1, r1) - _run_internal(nd2, r2)) for r1, r2 in run_pairs)

    def fL(self, r1, r2):
        """Split both runs at a leaf-count-matched point, or contract each
        whole. Every value is at least the floor |I(r1) - I(r2)|, so splits
        are built in position order, one whose bound is the floor runs at
        once, and one whose value is the floor wins: nothing later can beat
        it or tie it at an earlier position. Otherwise _first_min chooses
        among all of them, and what already ran answers from the memo."""
        nd1, nd2 = self.nd
        if _run_union(nd1, r1) != _run_union(nd2, r2):
            return INF, None
        if r1 is None and r2 is None:
            return 0, ("emptyrun", (), (), False, ())

        ci1, s1, lo1, hi1 = r1
        ci2, s2, lo2, hi2 = r2
        i1, i2 = _run_internal(nd1, r1), _run_internal(nd2, r2)
        floor = abs(i1 - i2)
        alts = []
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
            halves = _split(r1, r2, k, k2)
            subs = tuple(("L", pair) for pair in halves)
            split = ("split", (), (), False, subs)
            thunk = partial(self._sum, 0, subs, split)
            bound = self._imbalance(halves)
            alts.append((bound, thunk))
            if bound == floor:
                val, choice = yield from thunk()
                if val == floor:
                    return val, choice
        charge = (hi1 - lo1) + (hi2 - lo2)
        bound = _bound(hi1 - lo1, hi2 - lo2, i1, i2)
        alts.append((bound, partial(self._fullrun, r1, r2, charge)))
        return (yield from self._first_min(alts))

    def _fullrun(self, r1, r2, charge: int):
        """Contract each run into one node and compare the merged sides."""
        nd1, nd2 = self.nd
        nodes1 = _run_nodes(nd1, r1)
        nodes2 = _run_nodes(nd2, r2)
        subs = (("C", (nd1.decompose_path(r1[0], nodes1), nd2.decompose_path(r2[0], nodes2))),)
        return (yield from self._sum(charge, subs, ("fullrun", nodes1, nodes2, True, subs)))

    # -- traceback ---------------------------------------------------------------

    def _decode(self, table: str, key: tuple):
        """(nodes 1, nodes 2, opens a part, sub-entries) of a memoized choice:
        its record without the tag. Nodes go to the part the choice opens,
        else to the nearest enclosing one. Table "S" holds no entries: its
        keys are shared subtree pairs."""
        if table == "S":
            return self._shared(*key)
        val, choice = self.memos[table][key]
        if val == INF or choice is None:
            raise SelfCheckFailed(f"traceback reached an unsolved {table} entry")
        return choice[1:]

    def _shared(self, u: NodeId, v: NodeId):
        """A shared subtree pair, decoded into the parts the pairnode ->
        match -> leafleaf chain would open: u with v, then their internal
        children paired by clade, ascending."""
        kids = [
            sorted((c for c in nd.n.succ[w] if c in nd.tree_id), key=nd.d.__getitem__)
            for nd, w in zip(self.nd, (u, v))
        ]
        return (u,), (v,), True, tuple(("S", pair) for pair in zip(*kids))

    def _trace(self, k1: tuple, k2: tuple) -> list[tuple[set, set]]:
        """Witness parts in pre-order of the choices that open them; the
        roots' part is part 0."""
        parts = [({self.nd[0].n.root}, {self.nd[1].n.root})]
        stack = [("C", (k1, k2), 0)]
        while stack:
            table, key, g = stack.pop()
            nodes1, nodes2, opens, subs = self._decode(table, key)
            if opens:
                g = len(parts)
                parts.append((set(), set()))
            parts[g][0].update(nodes1)
            parts[g][1].update(nodes2)
            stack.extend((t, k, g) for t, k in reversed(subs))
        return parts

    # -- public ---------------------------------------------------------------

    def run(self):
        nd1, nd2 = self.nd
        k1 = nd1.decompose(nd1.n.root)
        k2 = nd2.decompose(nd2.n.root)
        val = self._evaluate("C", (k1, k2))
        if val == INF:
            raise SelfCheckFailed("no common contraction, not even the star")
        parts = self._trace(k1, k2)
        delta, m, w1, w2 = common_contraction(nd1.n, nd2.n, *zip(*parts))
        if val != delta:
            raise SelfCheckFailed(f"cost {val} but {len(parts)} parts give delta {delta}")
        return delta, m, w1, w2

    def stats(self) -> DpStats:
        return DpStats(
            fc_entries=len(self.fc_memo),
            fp_entries=len(self.fp_memo),
            fl_entries=len(self.fl_memo),
        )


def _bound(f1: int, f2: int, i1: int, i2: int) -> int:
    """Lower bound on an alternative that makes f1 and f2 contractions on
    materializations of i1 and i2 internal nodes: a common contraction
    leaves both sides with equal internal counts, so the rest costs at
    least the imbalance that remains."""
    return f1 + f2 + abs((i1 - f1) - (i2 - f2))


def _on_side(s: int, nodes: tuple) -> tuple[tuple, tuple]:
    """A record's (nodes 1, nodes 2) for nodes on side s alone."""
    return (nodes, ()) if s == 0 else ((), nodes)


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


def _run_internal(nd: _NetData, run) -> int:
    if run is None:
        return 0
    ci, side, lo, hi = run
    count = nd.ipref[ci][side]
    return count[hi + 1] - count[lo]


def _split(r1, r2, k: int, k2: int):
    """The run pairs above and below a split after position k of r1 and k2
    of r2."""
    ci1, s1, lo1, hi1 = r1
    ci2, s2, lo2, hi2 = r2
    top = ((ci1, s1, lo1, k), (ci2, s2, lo2, k2))
    bottom = ((ci1, s1, k + 1, hi1), (ci2, s2, k2 + 1, hi2))
    return top, bottom


def _run_nodes(nd: _NetData, run) -> tuple[NodeId, ...]:
    ci, side, lo, hi = run
    c = nd.cycles[ci]
    nodes = c.side_a if side == 0 else c.side_b
    return tuple(nodes[lo : hi + 1])


def solve(n1: Network, n2: Network):
    """Maximum common contraction of two weakly galled trees without internal
    degree-2 nodes. Returns (delta, m, witness1, witness2)."""
    return _Solver(n1, n2).run()


def solve_with_stats(n1: Network, n2: Network):
    s = _Solver(n1, n2)
    result = s.run()
    return result, s.stats()


def apply_rules(n1: Network, n2: Network) -> tuple[Network, Network, int]:
    """Exhaustively apply the safe Rules 1/2 to both networks; returns the
    reduced pair and the number of contractions.

    The rules are fC's: each firing of the cascade from the two root
    compositions is replayed on its network, so the schedule is the DP's.
    The one difference is the full leaf set, which the other network's root
    witnesses but has_value leaves out, so the cascade skips a candidate
    that queries it. Inputs are solve's: weakly galled trees on one leaf
    set without internal degree-2 nodes.
    """
    solver = _Solver(n1, n2)
    nd1, nd2 = solver.nd
    roots = (nd1.decompose(n1.root), nd2.decompose(n2.root))
    fired, _ = solver.cascade(*roots, skip=nd1.d[n1.root])
    nets = [n1, n2]
    for s, z, *_ in fired:
        nets[s] = contract_admissible(nets[s], nets[s].root, z)
    return nets[0], nets[1], len(fired)
