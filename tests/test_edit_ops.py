"""Contractions, expansions, witness structures, quotients."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocontract import (
    Contraction,
    WitnessStructure,
    apply_sequence,
    connect,
    contract,
    contract_admissible,
    contract_to_star,
    delta_mcc_from_common,
    expand,
    inverse_expansion,
    is_admissible,
    is_isomorphic,
    parse_enewick,
    quotient,
    sequence_to_witness,
    validate_witness,
    witness_to_sequence,
)
from phylocontract import edit_ops
from phylocontract.errors import InadmissibleContraction, NotAnEdge
from tests.conftest import gen_wgt

TRIANGLE = "(((1)#H1,2),#H1);"  # root->x->t plus the chord root->t


def leafparent(n, lab):
    return n.pred[n.leaf_by_label()[lab]][0]


def test_contract_merges_onto_fresh_node(t3a):
    p12 = leafparent(t3a, "1")
    m = contract(t3a, Contraction(t3a.root, p12, 99))
    assert m.root == 99
    assert m.num_internal == 1
    assert sorted(m.leaf_label.values()) == ["1", "2", "3"]
    star = parse_enewick("(1,2,3);")
    assert is_isomorphic(m, star)


def test_contract_admissible_rejects_leaf_endpoint(t3a):
    leaf = t3a.leaf_by_label()["3"]
    with pytest.raises(InadmissibleContraction):
        contract_admissible(t3a, t3a.root, leaf)


def test_contract_admissible_rejects_non_edges(t3a):
    leaf1 = t3a.leaf_by_label()["1"]
    with pytest.raises(NotAnEdge):
        contract_admissible(t3a, t3a.root, leaf1)


def test_chord_contraction_is_inadmissible():
    n = parse_enewick(TRIANGLE)
    t = n.reticulations()[0]
    x = leafparent(n, "2")
    assert not is_admissible(n, n.root, t)
    with pytest.raises(InadmissibleContraction) as exc:
        contract_admissible(n, n.root, t)
    alt = exc.value.alt_path
    assert alt[0] == n.root and alt[-1] == t and x in alt
    # the long side stays contractible
    m = contract_admissible(n, x, t)
    assert m.num_internal == 2


def test_parallel_arcs_collapse_in_contraction():
    n = parse_enewick(TRIANGLE)
    x = leafparent(n, "2")
    m = contract_admissible(n, n.root, x)
    t = m.reticulations()
    # root->t and x->t became one arc; t is no longer a reticulation
    assert t == []
    assert m.num_internal == 2


def test_contract_to_star_length_and_shape(g1, t3a):
    for n in (g1, t3a):
        seq = contract_to_star(n)
        assert len(seq.steps) == n.num_internal - 1
        final = apply_sequence(n, seq)
        assert final.num_internal == 1
        assert sorted(final.leaf_label.values()) == sorted(n.leaf_label.values())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_star_sequence_admissible_on_random_networks(seed):
    n = gen_wgt(4 + seed % 4, seed % 3, seed)
    cur = n
    for step in contract_to_star(n).steps:
        cur = contract_admissible(cur, step.u, step.v, step.w)
    assert cur.num_internal == 1


def test_expansion_inverts_contraction(g1):
    a = leafparent(g1, "2")
    c = Contraction(g1.root, a, 77)
    before = g1
    e = inverse_expansion(before, c)
    after = contract(before, c)
    back = expand(after, e)
    assert is_isomorphic(back, before)


def test_expand_passes_on_what_is_not_a_violation(g1, monkeypatch):
    # Only a PhyloError from validate makes an expansion inadmissible; running
    # out of memory, or a bug, must not be reported as one.
    c = Contraction(g1.root, leafparent(g1, "2"), 77)
    e = inverse_expansion(g1, c)
    after = contract(g1, c)

    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(edit_ops, "validate", exhaust)
    with pytest.raises(MemoryError):
        expand(after, e)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_expansion_inverts_random_contractions(seed):
    n = gen_wgt(5, seed % 3, seed)
    internal_edges = sorted(
        (u, v) for u in n.succ for v in n.succ[u] if v not in n.leaf_label
    )
    u, v = internal_edges[seed % len(internal_edges)]
    if not is_admissible(n, u, v):
        return
    c = Contraction(u, v, max(n.nodes()) + 1)
    e = inverse_expansion(n, c)
    assert is_isomorphic(expand(contract(n, c), e), n)


def test_connect_rewrites_between_fixtures(t3a, t3b):
    seq = connect(t3a, t3b)
    out = apply_sequence(t3a, seq)
    assert is_isomorphic(out, t3b)


def test_connect_between_network_and_tree(g1, t3a):
    seq = connect(g1, t3a)
    assert is_isomorphic(apply_sequence(g1, seq), t3a)


def test_quotient_collapses_internal_parts(t3a):
    p12 = leafparent(t3a, "1")
    parts = [{t3a.root, p12}]
    m = quotient(t3a, parts)
    part_of = {x: i for i, p in enumerate(parts) for x in p}
    assert m.num_internal == 1
    assert part_of[t3a.root] == part_of[p12]


def test_cyclic_quotient_is_rejected(g1):
    a = leafparent(g1, "2")
    t = leafparent(g1, "1")
    b = leafparent(g1, "3")
    from phylocontract.errors import CyclicGraph

    # merging root with the reticulation leaves arcs in both directions via a
    with pytest.raises(CyclicGraph):
        quotient(g1, [{g1.root, t}, {a}, {b}])


def test_disconnected_part_passes_quotient_but_fails_witness(g1):
    a = leafparent(g1, "2")
    t = leafparent(g1, "1")
    b = leafparent(g1, "3")
    # {a, b} is not weakly connected inside g1 minus root and t; the quotient
    # itself is a fine network, the witness conditions are what reject it
    parts = [{a, b}, {g1.root}, {t}]
    m = quotient(g1, parts)
    part_of = {x: i for i, p in enumerate(parts) for x in p}
    parts: dict[int, set[int]] = {}
    for src, q in part_of.items():
        parts.setdefault(q, set()).add(src)
    w = WitnessStructure({q: frozenset(v) for q, v in parts.items()})
    ok, reason = validate_witness(g1, m, w)
    assert not ok
    assert "connect" in reason


def test_witness_round_trip_via_star(g1):
    seq = contract_to_star(g1)
    m, w = sequence_to_witness(g1, seq)
    ok, reason = validate_witness(g1, m, w)
    assert ok, reason
    replay = witness_to_sequence(g1, m, w)
    assert is_isomorphic(apply_sequence(g1, replay), m)


def test_validate_witness_flags_bad_parts(t3a):
    p12 = leafparent(t3a, "1")
    m = quotient(t3a, [{t3a.root, p12}])
    wrong = WitnessStructure({m.root: frozenset({t3a.root})})  # p12 missing
    ok, reason = validate_witness(t3a, m, wrong)
    assert not ok
    assert reason


def test_delta_from_common_counts_internal_nodes(t3a, t3b, star3):
    assert delta_mcc_from_common(t3a, t3b, star3) == 2 + 2 - 2 * 1
    assert delta_mcc_from_common(t3a, t3a, t3a) == 0
