"""Core network type: validation, clades, traversal, isomorphism."""

from __future__ import annotations

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
