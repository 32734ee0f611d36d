"""Parsing and serialization of both text formats."""

from __future__ import annotations

import hashlib
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phylocontract import (
    is_isomorphic,
    parse_edgelist,
    parse_enewick,
    validate,
    write_edgelist,
    write_enewick,
)
from phylocontract.errors import (
    DuplicateHybridDefinition,
    DuplicateLabel,
    PhyloError,
    SyntaxError,
    UnresolvedHybridTag,
)
from phylocontract.generators import SplitMix64
from tests.conftest import gen_wgt, mutate

FIXDIR = Path(__file__).parent / "fixtures"


def test_parse_t3a_structure(t3a):
    assert t3a.num_internal == 2
    assert t3a.leaf_universe == ("1", "2", "3")
    assert t3a.reticulations() == []


def test_parse_g1_structure(g1):
    assert g1.num_internal == 4
    assert len(g1.reticulations()) == 1
    t = g1.reticulations()[0]
    assert len(g1.pred[t]) == 2
    assert g1.leaf_label[g1.succ[t][0]] == "1"


def test_write_g1_is_byte_stable(g1):
    assert write_enewick(g1) == "(((1)#H1,2),(#H1,3));"


def test_writer_sorts_children(t3a):
    shuffled = parse_enewick("(3,(2,1));")
    assert write_enewick(shuffled) == "((1,2),3);"
    assert write_enewick(t3a) == "((1,2),3);"


def test_writer_handles_deep_caterpillar():
    # 10^4 nesting levels, past the recursion limit. Leaves at odd levels
    # sort after everything below them, so the subtree is written first there.
    depth = 10**4

    def label(i):
        return f"{i:05d}" if i % 2 == 0 else f"z{i:05d}"

    edges = [(i, i + 1) for i in range(depth - 1)]
    edges += [(i, depth + i) for i in range(depth)] + [(depth - 1, 2 * depth)]
    labels = {depth + i: label(i) for i in range(depth)}
    labels[2 * depth] = "99999"
    opens = [f"({label(i)}," if i % 2 == 0 else "(" for i in range(depth - 1)]
    closes = [")" if i % 2 == 0 else f",{label(i)})" for i in range(depth - 1)]
    text = "".join(opens) + f"(99999,{label(depth - 1)})" + "".join(reversed(closes))
    assert write_enewick(validate(edges, labels)) == text + ";"


def test_quoted_labels_round_trip():
    n = parse_enewick("('sp. one','two''s',three);")
    assert sorted(n.leaf_label.values()) == ["sp. one", "three", "two's"]
    again = parse_enewick(write_enewick(n))
    assert is_isomorphic(n, again)


def test_branch_lengths_discarded_with_warning():
    with pytest.warns(UserWarning):
        n = parse_enewick("((1:0.5,2:1.2):3.0,3:0.1);")
    assert write_enewick(n) == "((1,2),3);"


@pytest.mark.parametrize("depth", [1, 2, 3, 1200])
def test_branch_length_warning_names_the_caller(depth):
    text = "(a:1,b)"
    for i in range(1, depth):
        text = f"({text},{i})"
    with pytest.warns(UserWarning, match="^branch length 1 discarded$") as record:
        parse_enewick(text + ";")
    assert [w.filename for w in record] == [__file__]


def _deep_text(bottom: str, first: int, depth: int) -> str:
    # Canonical caterpillar text: `bottom` holds the lowest labels, so the
    # writer puts it first at every level above it.
    return "(" * depth + bottom + "".join(f",{i:05d})" for i in range(first, first + depth)) + ";"


@pytest.mark.parametrize(
    "text",
    [
        _deep_text("00000", 1, 10**4),
        _deep_text("((00000)#H1,00001),(#H1,00002)", 3, 10**4 - 1),
    ],
    ids=["caterpillar", "reticulation_at_bottom"],
)
def test_deep_text_round_trips(text):
    # 10^4 nesting levels, past the recursion limit: parse and write both
    # run on explicit stacks.
    start = time.perf_counter()
    n = parse_enewick(text)
    assert write_enewick(n) == text
    assert time.perf_counter() - start < 10.0
    assert n.num_internal == text.count("(")
    assert len(n.reticulations()) == text.count("#H") // 2


def test_single_child_groups_parse():
    n = parse_enewick("((1));")
    assert n.num_internal == 2
    assert write_enewick(n) == "((1));"


def test_whitespace_tolerated():
    n = parse_enewick(" ( ( 1 , 2 ) ,\n 3 ) ;\n")
    assert write_enewick(n) == "((1,2),3);"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "((1,2),3)",  # missing semicolon
        "((1,2,3);",  # unbalanced
        "((1,),3);",  # empty subtree
        "((1,2),3); trailing",
        "(1,2),3);",
        "(#H1);",  # reference without definition handled below, this lacks children
    ],
)
def test_syntax_errors(text):
    with pytest.raises((SyntaxError, UnresolvedHybridTag)):
        parse_enewick(text)


def test_syntax_error_carries_position():
    with pytest.raises(SyntaxError) as exc:
        parse_enewick("((1,2)\n,3;")
    assert exc.value.line == 2
    assert exc.value.col >= 1


# (text, code, message, line, col) of each parser error, on multi-line
# inputs with tabs and "\r\n": a tab is one column, and "\r" is a column of
# the line it ends. A lexical error surfaces when its token becomes the
# lookahead, so it wins over a check that runs after that point.
_PARSER_ERRORS = {
    "hash_without_H": ("(a,\r\n\t#X1);", "SyntaxError", "expected 'H' after '#'", 2, 2),
    "hash_at_end": ("(a,\n\t#", "SyntaxError", "expected 'H' after '#'", 2, 2),
    "H_without_integer": ("(a,\r\n\t#H;", "SyntaxError", "expected integer after '#H'", 2, 2),
    "H_then_letter": ("(a,\n\t#Hx);", "SyntaxError", "expected integer after '#H'", 2, 2),
    "H_after_internal_label": ("(a,b)x\n\t#Hy;", "SyntaxError", "expected integer after '#H'", 2, 2),
    "unterminated_quote": ("(a,\r\n\t'b);", "SyntaxError", "unterminated quoted label", 2, 2),
    "doubled_quote_at_end": ("(a,\n\t'a''", "SyntaxError", "unterminated quoted label", 2, 2),
    "doubled_quote_then_text": ("(a,\n\t'a'');", "SyntaxError", "unterminated quoted label", 2, 2),
    "three_quotes": ("(a,\n\t''';", "SyntaxError", "unterminated quoted label", 2, 2),
    "trailing_label": ("(a,b);\r\n\tx", "SyntaxError", "expected 'end', found 'x'", 2, 2),
    "trailing_semicolon": ("(a,b);\n\t;", "SyntaxError", "expected 'end', found ';'", 2, 2),
    "trailing_bad_hash": ("(a,b)\n;#Q", "SyntaxError", "expected 'H' after '#'", 2, 2),
    "unexpected_comma": ("(a,\r\n\t,b);", "SyntaxError", "unexpected token ','", 2, 2),
    "unexpected_close": ("(a,\n\t);", "SyntaxError", "unexpected token ')'", 2, 2),
    "unexpected_end": ("", "SyntaxError", "unexpected token None", 1, 1),
    "unexpected_end_after_space": ("\r\n\t", "SyntaxError", "unexpected token None", 2, 2),
    "bad_hash_after_leaf": ("a#Q;", "SyntaxError", "expected 'H' after '#'", 1, 2),
    "expected_close_found_tag": ("(\n\t#H1#H2,b)#H1;", "SyntaxError", "expected ')', found 2", 2, 5),
    "expected_close_found_semicolon": ("((a,b)\n\t3;", "SyntaxError", "expected ')', found ';'", 2, 3),
    "expected_close_found_end": ("(a,'b''c'\n\t", "SyntaxError", "expected ')', found None", 2, 2),
    "length_is_label": ("(a:\r\n\tx,b);", "SyntaxError", "expected branch length after ':'", 2, 2),
    "length_is_comma": ("(a:\n\t,b);", "SyntaxError", "expected branch length after ':'", 2, 2),
    "length_is_end": ("(a,b:\n\t", "SyntaxError", "expected branch length after ':'", 2, 2),
    "length_is_bad_hash": ("(a:\n\t#Q,b);", "SyntaxError", "expected 'H' after '#'", 2, 2),
    "bad_hash_after_length": ("(a:1\n\t#Q,b);", "SyntaxError", "expected 'H' after '#'", 2, 2),
    "conflicting_references": (
        "((x#H1,b),\r\n\ty#H1);",
        "SyntaxError",
        "conflicting labels 'x' and 'y' for one hybrid",
        2,
        2,
    ),
    "conflicting_definition": (
        "((x#H1,b),\n\t(c)z#H1);",
        "SyntaxError",
        "conflicting labels 'x' and 'z' for one hybrid",
        2,
        6,
    ),
    "bad_hash_before_conflicting_reference": (
        "((x#H1,b),\n\ty#H1#Q);",
        "SyntaxError",
        "expected 'H' after '#'",
        2,
        6,
    ),
    "bad_hash_before_conflicting_definition": (
        "((x#H1,b),\n\t(c)z#H1#Q);",
        "SyntaxError",
        "expected 'H' after '#'",
        2,
        9,
    ),
    "duplicate_definition": ("(((1)#H1,2),\r\n\t((3)#H1,4));", "DuplicateHybridDefinition", "#H1", None, None),
    "bad_hash_before_duplicate_definition": (
        "(((1)#H1,2),\n\t((3)#H1#Q,4));",
        "SyntaxError",
        "expected 'H' after '#'",
        2,
        9,
    ),
    "unresolved_tag": ("((#H7,1),\r\n\t2);", "UnresolvedHybridTag", "#H7", None, None),
    "lowest_unresolved_tag": ("((#H8,1),\n\t#H7);", "UnresolvedHybridTag", "#H7", None, None),
}


@pytest.mark.parametrize("case", sorted(_PARSER_ERRORS))
def test_parser_error_is_pinned(case):
    text, code, message, line, col = _PARSER_ERRORS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(PhyloError) as exc:
            parse_enewick(text)
    assert exc.value.code == code
    if line is None:
        assert str(exc.value) == message
        assert not hasattr(exc.value, "line")
    else:
        assert str(exc.value) == f"{message} (line {line}, col {col})"
        assert (exc.value.line, exc.value.col) == (line, col)


def test_first_self_loop_in_text_order_is_reported():
    # A hybrid inside its own group is a self-loop; with two of them the
    # one whose group closes first (#H1, node 1) is named.
    from phylocontract.errors import CyclicGraph

    with pytest.raises(CyclicGraph, match=r"^self-loop at node 1$"):
        parse_enewick("(((a,#H1)#H1,c),(b,#H2)#H2);")


@pytest.mark.parametrize(
    "text,discarded",
    [
        # The warning follows the lookahead after the length, so a lexical
        # error there comes first and the warning is never given.
        ("(a:1\n\t#Q,b);", []),
        ("(a:1,b:'2'\n\t#Q);", ["1"]),
        ("(a:1,b:'2'\n\t;", ["1", "2"]),
    ],
)
def test_branch_length_warnings_before_an_error(text, discarded):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(SyntaxError):
            parse_enewick(text)
    assert [str(w.message) for w in record] == [f"branch length {x} discarded" for x in discarded]


def test_hybrid_tag_reads_any_decimal_digit():
    # int() reads every Unicode decimal digit: Arabic-Indic three is tag 3
    n = parse_enewick("((a)#H\u0663,(#H3,b));")
    assert len(n.reticulations()) == 1
    assert write_enewick(n) == "((a)#H1,(#H1,b));"


def test_unresolved_hybrid_tag():
    with pytest.raises(UnresolvedHybridTag):
        parse_enewick("((#H7,1),2);")


def test_duplicate_hybrid_definition():
    with pytest.raises(DuplicateHybridDefinition):
        parse_enewick("(((1)#H1,2),((3)#H1,4));")


def test_duplicate_leaf_labels_rejected():
    with pytest.raises(DuplicateLabel):
        parse_enewick("((1,2),1);")


def test_fixture_corpus_round_trips():
    for path in sorted(FIXDIR.glob("*.nwk")):
        n = parse_enewick(path.read_text())
        again = parse_enewick(write_enewick(n))
        assert is_isomorphic(n, again), path.name


def test_edgelist_round_trip(g1):
    text = write_edgelist(g1)
    again = parse_edgelist(text)
    assert is_isomorphic(g1, again)
    assert text == (FIXDIR / "g1.edges").read_text()


def test_edgelist_fixture_parses():
    n = parse_edgelist((FIXDIR / "g1.edges").read_text())
    assert n.num_internal == 4
    assert len(n.reticulations()) == 1


def test_edgelist_rejects_label_on_unknown_node():
    from phylocontract.errors import UnknownNode

    with pytest.raises(UnknownNode):
        parse_edgelist("0 1\n#leaves\n1 a\n9 b\n")


def test_edgelist_rejects_a_second_label_for_one_leaf():
    with pytest.raises(SyntaxError, match="line 6") as exc:
        parse_edgelist("r a\nr b\n#leaves\na 1\nb 2\na 3\n")
    assert exc.value.line == 6


@pytest.mark.parametrize("name", ["#c", "c"])
def test_edgelist_reads_a_hash_name_as_any_other_node(name):
    # Only "#leaves" is reserved: a line that starts with "#" is an edge
    # like any other, so the extra root is reported, not dropped.
    from phylocontract.errors import MultipleRoots

    with pytest.raises(MultipleRoots, match="in-degree-0 nodes"):
        parse_edgelist(f"r a\nr b\n{name} d\n#leaves\na 1\nb 2\nd 3\n")


def test_edgelist_hash_names_parse_as_nodes():
    n = parse_edgelist("#r #a\n#r b\n#leaves\n#a 1\nb 2\n")
    assert n.leaf_universe == ("1", "2") and n.num_internal == 1


def test_edgelist_rejects_a_one_field_line():
    with pytest.raises(SyntaxError, match="expected two fields") as exc:
        parse_edgelist("r a\nr\n#leaves\na 1\n")
    assert exc.value.code == "SyntaxError" and exc.value.line == 2


@pytest.mark.parametrize(
    "text,line",
    [
        # Only "\n" ends a line, as in eNewick and the CLI; form feeds, the
        # other Unicode line breaks and a CR before "\n" are whitespace.
        ("1 0\x0c3 1\n3 2 x\n#leaves\n0 a\n", 1),
        ("1 0\x0c\n3 2 x\n#leaves\n0 a\n", 2),
        ("1 0\u2028\x85\x1c\n3 1\n3 2 x\n", 3),
        ("r a\r\nr b\r\n#leaves\r\na 1\r\nb 2\r\na 3\r\n", 6),
    ],
)
def test_edgelist_error_lines_count_newlines_only(text, line):
    with pytest.raises(SyntaxError) as exc:
        parse_edgelist(text)
    assert exc.value.line == line


def test_edgelist_reads_crlf_lines():
    text = (FIXDIR / "g1.edges").read_text()
    crlf = parse_edgelist(text.replace("\n", "\r\n"))
    assert write_edgelist(crlf) == write_edgelist(parse_edgelist(text))


@pytest.mark.parametrize(
    "text",
    ["r a\nr x\nx x\na a\n#leaves\n", "r x\nr y\ny y\nx x\n#leaves\n"],
)
def test_edgelist_reports_the_first_self_loop_by_line(text):
    # Nodes are numbered at first sight, so the self-loop of line 3 is at
    # node 2 and the later one, on line 4, at node 1.
    from phylocontract.errors import CyclicGraph

    with pytest.raises(CyclicGraph, match=r"^self-loop at node 2$"):
        parse_edgelist(text)


def test_edgelist_accepts_arbitrary_node_names():
    n = parse_edgelist("root a\nroot b\na x\nb y\n#leaves\nx 1\ny 2\n")
    assert n.num_internal == 3
    assert sorted(n.leaf_label.values()) == ["1", "2"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_random_wgt_round_trips_both_formats(seed):
    n = gen_wgt(3 + seed % 6, seed % 3, seed)
    assert is_isomorphic(n, parse_enewick(write_enewick(n)))
    assert is_isomorphic(n, parse_edgelist(write_edgelist(n)))


def _parser_corpus():
    """Seeded eNewick texts: the fixtures, random weakly galled trees, and
    criterion-10-style character mutations of both plus a few seeds with
    labels, internal labels and branch lengths."""
    texts = [path.read_text() for path in sorted(FIXDIR.glob("*.nwk"))]
    rng = SplitMix64(14_001)
    for _ in range(120):
        leaves = rng.randint(3, 40)
        n = gen_wgt(leaves, rng.randint(0, leaves // 6), rng.randrange(1 << 30))
        texts.append(write_enewick(n))
    seeds = texts[:30] + [
        "((a:1,b:2.5)x:3,(c)#H1,(#H1,d)e);",
        "((1,2)#H1,(x#H1,3));",
        "('a b',(c,'d''e'):0.5);",
    ]
    yield from texts
    for _ in range(4000):
        yield mutate(rng, seeds[rng.randrange(len(seeds))])


def test_parser_digest_is_frozen():
    # One SHA-256 over the outcome of parsing every corpus text: the edge
    # list (node ids included, which --witness, star and --format edgelist
    # print) or the error code and message (positions included). Recorded
    # before the parser moved onto an explicit stack.
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text in _parser_corpus():
            try:
                out = write_edgelist(parse_enewick(text))
            except PhyloError as exc:
                out = f"{exc.code}: {exc}"
            h.update(out.encode() + b"\0")
    assert h.hexdigest() == "f73973fe42b9d8aa759207930f9ba3b04e1a2027909698000fcfe5bc39b766e6"
