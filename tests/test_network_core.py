"""Core network type: validation, clades, traversal, isomorphism."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocontract import (
    is_isomorphic,
    parse_enewick,
    topological_order,
    validate,
)
from phylocontract.errors import (
    CyclicGraph,
    DuplicateLabel,
    LeafWithInDegreeNot1,
    MultipleRoots,
    NoRoot,
    UnlabeledLeaf,
)
from phylocontract.generators import SplitMix64
from tests.conftest import gen_wgt


def bits_of(n, labels):
    uni = n.leaf_universe
    return sum(1 << uni.index(lab) for lab in labels)


def test_validate_builds_t3a_shape():
    n = validate([(4, 3), (4, 2), (3, 0), (3, 1)], {0: "1", 1: "2", 2: "3"})
    assert n.root == 4
    assert n.num_internal == 2
    assert sorted(n.leaves()) == [0, 1, 2]
    assert n.leaf_universe == ("1", "2", "3")
    assert n.reticulations() == []


def test_validate_isolated_extra_node_is_second_root():
    with pytest.raises(MultipleRoots):
        validate([(2, 0)], {0: "a"}, nodes=[5])


def test_validate_rejects_self_loop():
    with pytest.raises(CyclicGraph):
        validate([(0, 0)], {})


def test_validate_rejects_directed_cycle():
    with pytest.raises(CyclicGraph):
        validate([(0, 1), (1, 2), (2, 0), (0, 3)], {3: "x"})


def test_validate_rejects_two_roots():
    with pytest.raises(MultipleRoots):
        validate([(0, 2), (1, 2), (2, 3)], {3: "x"})


def test_validate_rejects_empty():
    with pytest.raises(NoRoot):
        validate([], {})


def test_validate_rejects_unlabeled_sink():
    with pytest.raises(UnlabeledLeaf):
        validate([(0, 1), (0, 2)], {1: "a"})


def test_validate_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        validate([(0, 1), (0, 2)], {1: "a", 2: "a"})


def test_validate_rejects_labeled_internal():
    # a labeled node with out-edges is not a leaf
    with pytest.raises(UnlabeledLeaf):
        validate([(0, 1), (1, 2), (0, 2)], {1: "a", 2: "b"})


def test_validate_rejects_leaf_with_in_degree_two():
    with pytest.raises(LeafWithInDegreeNot1):
        validate([(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)], {3: "a", 4: "b"})


def _same_network(a, b):
    assert list(a.succ.items()) == list(b.succ.items())
    assert list(a.pred.items()) == list(b.pred.items())
    assert a.root == b.root and a.leaf_label == b.leaf_label


@pytest.mark.parametrize("seed", range(6))
def test_validate_reads_a_one_shot_iterable_with_repeats(seed):
    # parse_enewick, quotient and expand hand validate their edges as a
    # plain iterable that may repeat an edge; the adjacency sets dedupe it.
    n = gen_wgt(4 + seed, seed % 3, seed)
    edges = n.edges()
    rng = SplitMix64(seed)
    noisy = edges + [edges[rng.randrange(len(edges))] for _ in range(len(edges))]
    rng.shuffle(noisy)
    nodes = n.nodes()
    ref = validate(edges, n.leaf_label, nodes=nodes)
    assert ref.succ == n.succ and ref.pred == n.pred
    _same_network(validate(iter(noisy), n.leaf_label, nodes=iter(nodes)), ref)
    _same_network(validate((e for e in noisy), n.leaf_label, nodes=range(len(nodes))), ref)


@pytest.mark.parametrize(
    "edges,labels,error,message",
    [
        ([(0, 1), (0, 1), (1, 1), (1, 2), (0, 0)], {2: "a"}, CyclicGraph, "self-loop at node 1"),
        ([(0, 2), (1, 2), (0, 2), (2, 3), (1, 2)], {3: "x"}, MultipleRoots, "in-degree-0 nodes: [0, 1]"),
        ([(0, 1), (1, 2), (2, 1), (1, 2), (2, 3)], {3: "x"}, CyclicGraph, "directed cycle detected"),
    ],
    ids=["self_loop", "two_roots", "cycle"],
)
def test_validate_raises_the_first_error_of_a_one_shot_iterable(edges, labels, error, message):
    for given in (edges, iter(edges), list(dict.fromkeys(edges))):
        with pytest.raises(error) as exc:
            validate(given, labels)
        assert str(exc.value) == message


def test_clades_t3a(t3a):
    d = t3a.clades()
    leaf = t3a.leaf_by_label()
    p12 = t3a.pred[leaf["1"]][0]
    assert d[t3a.root] == bits_of(t3a, ["1", "2", "3"])
    assert d[p12] == bits_of(t3a, ["1", "2"])
    assert d[leaf["3"]] == bits_of(t3a, ["3"])


def test_clades_g1_reticulation_counted_once(g1):
    d = g1.clades()
    leaf = g1.leaf_by_label()
    a = g1.pred[leaf["2"]][0]
    b = g1.pred[leaf["3"]][0]
    t = g1.pred[leaf["1"]][0]
    assert d[t] == bits_of(g1, ["1"])
    assert d[a] == bits_of(g1, ["1", "2"])
    assert d[b] == bits_of(g1, ["1", "3"])
    assert d[g1.root] == bits_of(g1, ["1", "2", "3"])


def test_reticulations_and_reaches(g1):
    leaf = g1.leaf_by_label()
    t = g1.pred[leaf["1"]][0]
    assert g1.reticulations() == [t]
    assert g1.reaches(g1.root, leaf["3"])
    assert not g1.reaches(leaf["3"], g1.root)
    a = g1.pred[leaf["2"]][0]
    assert g1.reaches(a, leaf["1"])
    assert not g1.reaches(a, leaf["3"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_topological_order_respects_edges(seed):
    n = gen_wgt(4 + seed % 4, seed % 3, seed)
    order = topological_order(n)
    pos = {u: i for i, u in enumerate(order)}
    assert sorted(order) == sorted(n.nodes())
    for u, v in n.edges():
        assert pos[u] < pos[v]


def test_iso_ignores_child_order_and_node_ids(t3a):
    same = parse_enewick("(3,(2,1));")
    assert is_isomorphic(t3a, same)
    ok, mapping = is_isomorphic(t3a, same, return_mapping=True)
    assert ok
    # mapping sends leaves to equally labeled leaves
    lab1 = t3a.leaf_label
    lab2 = same.leaf_label
    for u, v in mapping.items():
        if u in lab1:
            assert lab1[u] == lab2[v]


def test_iso_distinguishes_topologies(t3a, t3b, star3):
    assert not is_isomorphic(t3a, t3b)
    assert not is_isomorphic(t3a, star3)
    ok, mapping = is_isomorphic(t3a, t3b, return_mapping=True)
    assert not ok and mapping is None


def test_iso_backtracks_to_the_same_mapping():
    # Unary chains root-1-3 and root-4-5-6 meet at reticulation 7; 1/4 and
    # 3/5 share signatures. The search first sends 1 to m's 1 (the image of
    # 4), assigns 2 in the unrelated gadget, finds no image for 3, exhausts
    # 2's candidates, and only then corrects 1; 2 must start over.
    tail = [(7, 10), (0, 2), (0, 8), (2, 9), (8, 9), (9, 11)]
    labels = {10: "a", 11: "b"}
    n = validate([(0, 1), (1, 3), (3, 7), (0, 4), (4, 5), (5, 6), (6, 7), *tail], labels)
    m = validate([(0, 4), (4, 5), (5, 7), (0, 1), (1, 3), (3, 6), (6, 7), *tail], labels)
    ok, mapping = is_isomorphic(n, m, return_mapping=True)
    assert ok
    want = {0: 0, 1: 4, 2: 2, 3: 5, 4: 1, 5: 3, 6: 6, 7: 7, 8: 8, 9: 9, 10: 10, 11: 11}
    assert mapping == want


def test_iso_is_label_sensitive(t3a):
    renamed = parse_enewick("((1,2),4);")
    assert not is_isomorphic(t3a, renamed)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 500))
def test_iso_invariant_under_id_shift(seed, shift):
    n = gen_wgt(5, seed % 3, seed)
    shifted = validate(
        [(u + shift, v + shift) for u, v in n.edges()],
        {u + shift: lab for u, lab in n.leaf_label.items()},
    )
    assert is_isomorphic(n, shifted)


def _random_dag(rng, internal: int, leaves: int):
    """A network on internal nodes 0..internal-1 in topological order, each
    below a random non-empty set of earlier ones, with leaves a, b, ... hung
    from random internal nodes: the last internal node takes leaf a, and
    every other childless one gets an edge to a later one."""
    edges = set()
    for i in range(1, internal):
        parents = [p for p in range(i) if rng.randrange(2)] or [rng.randrange(i)]
        edges.update((p, i) for p in parents)
    labels = {}
    for j in range(leaves):
        edges.add((internal - 1 if j == 0 else rng.randrange(internal), internal + j))
        labels[internal + j] = "abcd"[j]
    for u in range(internal - 1):
        if not any(x == u for x, _ in edges):
            edges.add((u, u + 1 + rng.randrange(internal - 1 - u)))
    return validate(sorted(edges), labels)


def _renumbered(rng, n):
    ids = sorted(n.succ)
    new = list(ids)
    rng.shuffle(new)
    to = dict(zip(ids, new))
    return validate(
        [(to[u], to[v]) for u, v in n.edges()], {to[u]: lab for u, lab in n.leaf_label.items()}
    )


def _iso_by_permutation(n1, n2) -> bool:
    """The reference: some bijection of the internal nodes, with leaves
    matched by label, maps n1's edges onto n2's."""
    if n1.leaf_universe != n2.leaf_universe or n1.num_internal != n2.num_internal:
        return False
    by_label = n2.leaf_by_label()
    edges2 = set(n2.edges())
    internal1 = n1.internal_nodes()
    for image in itertools.permutations(n2.internal_nodes()):
        phi = dict(zip(internal1, image))
        phi.update((u, by_label[lab]) for u, lab in n1.leaf_label.items())
        if {(phi[u], phi[v]) for u, v in n1.edges()} == edges2:
            return True
    return False


def _check_iso(n1, n2) -> bool:
    ok, mapping = is_isomorphic(n1, n2, return_mapping=True)
    assert ok == _iso_by_permutation(n1, n2)
    if ok:
        assert {(mapping[u], mapping[v]) for u, v in n1.edges()} == set(n2.edges())
    return ok


def test_iso_agrees_with_permutations_on_random_dags():
    # Half the pairs are renumbered copies, half independent networks of the
    # same size, so both answers occur often.
    rng = SplitMix64(2024)
    answers = []
    for i in range(1500):
        n1 = _random_dag(rng, rng.randint(2, 6), rng.randint(1, 4))
        if i % 2:
            n2 = _renumbered(rng, n1)
        else:
            n2 = _random_dag(rng, n1.num_internal, len(n1.leaf_label))
        answers.append(_check_iso(n1, n2))
    assert 750 < sum(answers) < 1500


# Small pairs that reach the search's rarer exits, as (edges 1, edges 2,
# isomorphic); sinks are labeled a, b, ... in id order.
_ISO_PAIRS = {
    # One signature set, counts A 2/1 and Z 1/2: root 0 has children
    # A (1, 2 | 1), Z (3 | 2, 3) and W=4; W and Y=5 reach both P=6 and Q=7,
    # which keeps every in-degree equal.
    "unequal counts": (
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 6), (2, 6), (3, 7), (4, 7), (4, 5), (5, 6), (5, 7)]
        + [(6, 8), (7, 9)],
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 6), (2, 7), (3, 7), (4, 6), (4, 5), (5, 6), (5, 7)]
        + [(6, 8), (7, 9)],
        False,
    ),
    # Renumbered copies. u1=4 has parents T1=1, T2=2, u2=5 has K=6 and
    # T3=3; both sit above R=7. In the copy u2's image 4 comes first, so the
    # search tries it for u1 and finds its assigned parent K outside u1's
    # parents: the reverse parent check fails.
    "reverse parent check": (
        [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (2, 4), (3, 5), (6, 5), (4, 7), (5, 7)]
        + [(6, 9), (7, 8)],
        [(0, 1), (0, 2), (0, 3), (0, 6), (1, 5), (2, 5), (3, 4), (6, 4), (5, 7), (4, 7)]
        + [(6, 9), (7, 8)],
        True,
    ),
    # From a seeded search over random DAGs: the reverse child check fails.
    "reverse child check": (
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 4), (3, 5), (4, 5), (5, 6)],
        [(0, 6), (1, 0), (1, 2), (1, 3), (1, 4), (1, 6), (2, 6), (3, 4), (4, 2), (6, 5)],
        True,
    ),
}


def _sinks_labeled(edges):
    sinks = sorted({v for _, v in edges} - {u for u, _ in edges})
    return validate(edges, {v: "ab"[i] for i, v in enumerate(sinks)})


@pytest.mark.parametrize("case", sorted(_ISO_PAIRS))
def test_iso_agrees_with_permutations_on_rare_exits(case):
    edges1, edges2, want = _ISO_PAIRS[case]
    assert _check_iso(_sinks_labeled(edges1), _sinks_labeled(edges2)) is want


def test_num_internal_counts_non_leaves(g1):
    assert g1.num_internal == 4
    assert len(g1.leaf_label) == 3


def test_to_dot_mentions_every_edge(g1):
    dot = g1.to_dot()
    assert dot.startswith("digraph")
    for u, v in g1.edges():
        assert f"n{u} -> n{v};" in dot
    # reticulations are visually distinct
    t = g1.reticulations()[0]
    assert f'n{t} [label="", shape=diamond];' in dot
