"""Contractions, expansions, witness structures, quotients."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocontract import (
    Contraction,
    EditSequence,
    Expansion,
    SetSplittingInstance,
    WitnessStructure,
    apply_sequence,
    connect,
    contract,
    contract_admissible,
    contract_to_star,
    delta_mcc_from_common,
    diameter_pair,
    expand,
    inverse_expansion,
    is_admissible,
    is_isomorphic,
    parse_edgelist,
    parse_enewick,
    quotient,
    reduction_deg_bounded,
    reduction_five_leaves,
    sequence_to_witness,
    validate_witness,
    witness_to_sequence,
    write_edgelist,
    write_enewick,
)
from phylocontract import cli, edit_ops
from phylocontract.errors import (
    InadmissibleContraction,
    InadmissibleExpansion,
    InadmissibleStep,
    InvalidParameters,
    InvalidWitness,
    KeyMismatch,
    LeafSetMismatch,
    NotAnEdge,
    PhyloError,
)
from phylocontract.generators import SplitMix64
from phylocontract.mcc_oracle import connected_partitions
from tests.conftest import gen_wgt, perturb

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


# -- error paths --------------------------------------------------------------------
#
# t3a = ((1,2),3): root r, the parent p of leaves 1 and 2, leaf c labeled 3.


def _t3a_nodes(t3a):
    return t3a.root, leafparent(t3a, "1"), t3a.leaf_by_label()["3"]


def _raises(cls, fn) -> str:
    """fn's error, which must be exactly cls; returns its code and message."""
    with pytest.raises(cls) as exc:
        fn()
    assert type(exc.value) is cls
    return f"{exc.value.code}: {exc.value}"


def test_contract_rejects_a_non_edge_and_a_used_merge_node(t3a):
    r, p, c = _t3a_nodes(t3a)
    got = _raises(NotAnEdge, lambda: contract(t3a, Contraction(c, r, 99)))
    assert got == f"NotAnEdge: ({c},{r}) is not an edge"
    got = _raises(InvalidParameters, lambda: contract(t3a, Contraction(r, p, p)))
    assert got == f"InvalidParameters: merge node {p} must be fresh"


def test_is_admissible_rejects_a_non_edge(t3a):
    r, p, c = _t3a_nodes(t3a)
    got = _raises(NotAnEdge, lambda: is_admissible(t3a, p, c))
    assert got == f"NotAnEdge: ({p},{c}) is not an edge"


def _split_root(star3, v=None, **classes) -> Expansion:
    """An expansion of star3's root into v (fresh by default) above a fresh
    w; out-neighbors go to v unless classes says otherwise."""
    fresh = star3.fresh_id()
    spec = dict.fromkeys(("xminus", "yminus", "zminus", "yplus", "zplus"), ())
    spec["xplus"] = star3.succ[star3.root]
    spec.update(classes)
    return Expansion(star3.root, fresh if v is None else v, fresh + 1, **spec)


@pytest.mark.parametrize(
    "case,message",
    [
        ("leaf", "node {leaf} is not an internal node"),
        ("used", "v and w must be fresh distinct nodes"),
        ("twice", "classes must partition in(u) and out(u)"),
        ("sink", "expansion result invalid: sink node {w} has no label"),
    ],
)
def test_expand_rejections(star3, case, message):
    leaf = min(star3.leaf_label)
    fresh = star3.fresh_id()
    ones, rest = star3.succ[star3.root][:1], star3.succ[star3.root][1:]
    e = {
        "leaf": dataclasses.replace(_split_root(star3), u=leaf),
        "used": _split_root(star3, v=leaf),
        "twice": _split_root(star3, xplus=star3.succ[star3.root], zplus=ones),
        "sink": _split_root(star3),
    }[case]
    got = _raises(InadmissibleExpansion, lambda: expand(star3, e))
    assert got == "InadmissibleExpansion: " + message.format(leaf=leaf, w=fresh + 1)
    # with one leaf moved below w, the same split is admissible
    assert expand(star3, _split_root(star3, xplus=rest, yplus=ones)).num_internal == 2


def test_apply_sequence_reports_the_failing_expansion(star3):
    seq = EditSequence((_split_root(star3),))
    got = _raises(InadmissibleStep, lambda: apply_sequence(star3, seq))
    w = star3.fresh_id() + 1
    assert got == (
        f"InadmissibleStep: step 0: expansion result invalid: sink node {w} has no label"
    )


def test_connect_rejects_different_leaf_sets(t3a):
    other = parse_enewick("((1,2),4);")
    got = _raises(LeafSetMismatch, lambda: connect(t3a, other))
    assert got == "LeafSetMismatch: ('1', '2', '3') vs ('1', '2', '4')"


def test_validate_witness_raises_on_keys_and_leaf_sets(t3a):
    r, p, _ = _t3a_nodes(t3a)
    star = quotient(t3a, [[r, p]])
    got = _raises(
        KeyMismatch, lambda: validate_witness(t3a, star, WitnessStructure({7: frozenset({r, p})}))
    )
    assert got == "KeyMismatch: witness keys [7] != internal nodes [0]"
    other = parse_enewick("(1,2,4);")
    got = _raises(
        LeafSetMismatch,
        lambda: validate_witness(t3a, other, WitnessStructure({other.root: frozenset({r, p})})),
    )
    assert got == "LeafSetMismatch: ('1', '2', '3') vs ('1', '2', '4')"


def test_validate_witness_answers(t3a, t3b):
    r, p, c = _t3a_nodes(t3a)
    star = quotient(t3a, [[r, p]])
    pb = leafparent(t3b, "1")
    # a path root -> x -> y -> z of internal nodes, and its quotient with y
    # and z merged: parts {root, y}, {x}, {z} match its three nodes
    path = parse_enewick("((((1,2),3),4),5);")
    x = path.succ[path.root][0]
    y, z = path.succ[x][0], leafparent(path, "1")
    path3 = quotient(path, [[path.root], [x], [y, z]])
    cases = [
        (t3a, star, {0: {r, p, c}}, "part 0 contains non-internal nodes"),
        (t3a, t3a, {r: {r, p}, p: {p}}, f"part {p} overlaps another part"),
        # a part that holds a leaf and overlaps another fails on the leaf
        (t3a, t3a, {r: {r, p}, p: {p, c}}, f"part {p} contains non-internal nodes"),
        (t3a, t3a, {r: set(), p: {r, p}}, f"part {r} is empty"),
        (path, path3, {0: {path.root, y}, 1: {x}, 2: {z}}, "part 0 is not weakly connected"),
        (t3a, star, {0: {r}}, "parts do not cover all internal nodes"),
        (
            t3a,
            t3a,
            {r: {p}, p: {r}},
            f"edge pattern mismatch (missing={{({r}, {p})}}, extra={{({p}, {r})}})",
        ),
        # t3b = ((1,3),2) on t3a's nodes: the edge pattern matches, but leaf
        # 3 hangs from t3a's root, outside the part of its t3b parent
        (t3a, t3b, {t3b.root: {r}, pb: {p}}, f"leaf '3': parent {r} not in part {pb}"),
    ]
    for n, m, parts, why in cases:
        w = WitnessStructure({k: frozenset(v) for k, v in parts.items()})
        assert validate_witness(n, m, w) == (False, why)
        got = _raises(InvalidWitness, lambda: witness_to_sequence(n, m, w))
        assert got == f"InvalidWitness: {why}"


def test_quotient_rejects_parts_that_do_not_cover(t3a):
    r, p, c = _t3a_nodes(t3a)
    for parts in ([[r]], [[r], [p, c]], [[r, p, c]]):
        got = _raises(InvalidParameters, lambda: quotient(t3a, parts))
        assert got == "InvalidParameters: parts must cover exactly the internal nodes"
    assert quotient(t3a, [[r], [p]]).num_internal == 2


# -- pinned outputs ---------------------------------------------------------------


def _net_line(n) -> list:
    """n's root, edges, leaf labels and eNewick text: node ids included."""
    return [n.root, n.edges(), sorted(n.leaf_label.items()), write_enewick(n)]


def _steps_line(seq) -> list:
    return [[type(s).__name__, *dataclasses.astuple(s)] for s in seq.steps]


def _parts_line(w) -> list:
    return [[g, sorted(p)] for g, p in sorted(w.parts.items())]


def _outcome(fn, line) -> list:
    """fn's result through `line`, or the error's code and message."""
    try:
        return ["ok", line(fn())]
    except PhyloError as exc:
        return [exc.code, str(exc)]


def _edit_pairs(fixture_dir):
    """Same-leaf pairs: fixtures that share a leaf set, seeded random weakly
    galled trees against a contracted copy or an independent network,
    diameter pairs and both Set Splitting reductions."""
    fixtures = [parse_enewick(p.read_text()) for p in sorted(fixture_dir.glob("*.nwk"))]
    fixtures.append(parse_edgelist((fixture_dir / "g1.edges").read_text()))
    pairs = [
        (a, b)
        for i, a in enumerate(fixtures)
        for b in fixtures[i + 1 :]
        if a.leaf_universe == b.leaf_universe
    ]
    rng = SplitMix64(1616)
    for i in range(16):
        leaves = rng.randint(3, 20)
        n = gen_wgt(leaves, rng.randint(0, 3), rng.randrange(1 << 30))
        if i % 2:
            other = gen_wgt(leaves, rng.randint(0, 3), rng.randrange(1 << 30))
        else:
            other = perturb(n, rng.randint(1, 4), rng.randrange(1 << 30))
        pairs.append((n, other))
    for leaves, m, mp in ((4, 2, 5), (5, 3, 4), (5, 6, 2), (7, 4, 7), (4, 6, 6)):
        pairs.append(diameter_pair(leaves, m, mp))
    inst = SetSplittingInstance(("a", "b"), (frozenset("a"),))
    for build in (reduction_deg_bounded, reduction_five_leaves):
        pairs.append(build(inst)[:2])
    nets = {write_enewick(n): n for n in fixtures}
    nets.update((write_enewick(n), n) for pair in pairs for n in pair)
    return list(nets.values()), pairs


def _corrupted(n, seq):
    """Star sequences broken at their middle step: the edge swapped, a leaf
    absorbed, an expansion inserted, and a step that is no edit at all."""
    steps = seq.steps
    i = len(steps) // 2
    before = apply_sequence(n, EditSequence(steps[:i]))
    s = steps[i]
    leaf = min(before.leaf_label)
    absorb = Contraction(before.pred[leaf][0], leaf, before.fresh_id())
    undo = inverse_expansion(before, s)
    return [
        steps[:i] + (Contraction(s.v, s.u, s.w),) + steps[i + 1 :],
        steps[:i] + (absorb,) + steps[i + 1 :],
        steps[: i + 1] + (undo,) + steps[i + 1 :],
        steps[:i] + ("step",) + steps[i:],
    ]


def _edit_lines(fixture_dir, tmp_path, capsys) -> list[str]:
    nets, pairs = _edit_pairs(fixture_dir)
    rng = SplitMix64(1717)
    lines = []
    for n in nets:
        seq = contract_to_star(n)
        lines.append([_steps_line(seq), _net_line(apply_sequence(n, seq))])
        m, w = sequence_to_witness(n, seq)
        lines.append([_net_line(m), _parts_line(w)])
        if n.num_internal <= 9:
            partitions = list(connected_partitions(n))
            for _ in range(6):
                parts = rng.choice(partitions)
                try:
                    m = quotient(n, [set(p) for p in parts])
                except PhyloError as exc:
                    lines.append([exc.code, str(exc)])
                    continue
                w = WitnessStructure({g: frozenset(p) for g, p in enumerate(parts)})
                lines.append(_outcome(lambda: witness_to_sequence(n, m, w), _steps_line))
        if seq.steps:
            for bad in _corrupted(n, seq):
                bad_seq = EditSequence(bad)
                lines.append(_outcome(lambda: apply_sequence(n, bad_seq), _net_line))
                lines.append(
                    _outcome(
                        lambda: sequence_to_witness(n, bad_seq),
                        lambda r: [_net_line(r[0]), _parts_line(r[1])],
                    )
                )
        for fmt, text in (("enewick", write_enewick(n)), ("edgelist", write_edgelist(n))):
            path = tmp_path / f"n.{fmt}"
            path.write_text(text, encoding="utf-8")
            code = cli.main(["--format", fmt, "star", str(path)])
            out, err = capsys.readouterr()
            lines.append([fmt, code, out, err])
    for n1, n2 in pairs:
        for a, b in ((n1, n2), (n2, n1)):
            seq = connect(a, b)
            lines.append([_steps_line(seq), _net_line(apply_sequence(a, seq))])
    return [json.dumps(line) for line in lines]


def test_edit_ops_output_is_pinned(fixture_dir, tmp_path, capsys):
    # One SHA-256 over star sequences, witness extraction and replay,
    # `connect` routes, the errors of corrupted sequences and `star` stdout,
    # recorded before the edit calculus was reduced to one implementation
    # per concept: that reduction must not change a byte.
    lines = _edit_lines(fixture_dir, tmp_path, capsys)
    assert len(lines) > 600
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EDIT_OPS_DIGEST


EDIT_OPS_DIGEST = "e2e445c2e187bd7051b0a21bb507ac29bd00a03115d76e6a8480165e7a02b83f"
