"""Command-line surface: outputs, exit codes, and the error channel."""

import bisect
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import G1_TEXT, STAR3_TEXT, T3A_TEXT, T3B_TEXT, src_env
from phylocontract import cli
from phylocontract.cli import _witness_json, main
from phylocontract.errors import PhyloError
from phylocontract.generators import random_wgt
from phylocontract.io_enewick import parse_enewick, write_enewick
from phylocontract.mcc_dp import solve
from phylocontract.mcc_oracle import exact_mcc
from phylocontract.network_core import is_isomorphic

G1_EDGES = "1 0\n3 1\n3 2\n5 1\n5 4\n6 3\n6 5\n#leaves\n0 1\n2 2\n4 3\n"


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -------------------------------------------------------------------


def test_validate_summary_line(files, capsys):
    code, out, err = run(capsys, ["validate", files("g1.nwk", G1_TEXT)])
    assert code == 0 and err == ""
    assert out == "nodes=7 internal=4 leaves=3 reticulations=1 weakly_galled=true\n"


def test_validate_quiet_is_silent(files, capsys):
    code, out, err = run(capsys, ["--quiet", "validate", files("g1.nwk", G1_TEXT)])
    assert (code, out, err) == (0, "", "")


def test_validate_dot_output(files, capsys):
    code, out, _ = run(capsys, ["validate", files("g1.nwk", G1_TEXT), "--dot"])
    assert code == 0
    assert "digraph" in out and "->" in out


def test_validate_dot_escapes_labels(files, capsys):
    path = files("q.nwk", "(('a\"b','c\\d'),e);")
    code, out, _ = run(capsys, ["--quiet", "validate", path, "--dot"])
    assert code == 0
    assert '[label="a\\"b", shape=plaintext]' in out
    assert '[label="c\\\\d", shape=plaintext]' in out


def test_validate_rejects_bad_syntax(files, capsys):
    code, out, err = run(capsys, ["validate", files("bad.nwk", "((1,2);")])
    assert code == 2 and out == ""
    assert err.startswith("error: SyntaxError:")
    assert "line 1" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u2463"], ids=["superscript two", "circled four"])
def test_hybrid_tag_refuses_digits_int_cannot_read(files, capsys, digit):
    # str.isdigit accepts these characters but int() does not: the tag is a
    # syntax error with exit 2, not a traceback
    code, out, err = run(capsys, ["validate", files("t.nwk", f"((a)#H{digit},(#H{digit},b));")])
    assert (code, out) == (2, "")
    assert err == "error: SyntaxError: expected integer after '#H' (line 1, col 5)\n"


@pytest.mark.parametrize(
    "argv, data, byte, where",
    [
        (["validate", "{bad}"], b"((1,2),\xff3);", "0xff", "line 1, col 8"),
        # columns count characters, as the parser's do
        (["validate", "{bad}"], b"((1,'\xc3\xa9'),\n\xc3);", "0xc3", "line 2, col 1"),
        (["mcc", "wgt", "{good}", "{bad}"], b"((1,2),\xff3);", "0xff", "line 1, col 8"),
        (["gen", "reduction1", "--instance", "{bad}"], b"a b\nb \xffc\n", "0xff", "line 2, col 3"),
    ],
)
def test_undecodable_input_is_a_syntax_error(tmp_path, capsys, argv, data, byte, where):
    # A byte that is not UTF-8 is refused like any other bad input: exit 2
    # and one error line naming the first such byte, not a traceback.
    (tmp_path / "bad").write_bytes(data)
    (tmp_path / "good").write_text(T3A_TEXT, encoding="utf-8")
    paths = {"bad": tmp_path / "bad", "good": tmp_path / "good"}
    code, out, err = run(capsys, [a.format(**paths) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: SyntaxError: byte {byte} does not decode as UTF-8 ({where})\n"


def test_missing_file_reports_ioerror(tmp_path, capsys):
    code, _, err = run(capsys, ["validate", str(tmp_path / "absent.nwk")])
    assert code == 2
    assert err.startswith("error: IOError:")


def _caterpillar(depth: int) -> str:
    text = "0"
    for i in range(1, depth + 1):
        text = f"({text},{i})"
    return text + ";"


def _deep_clades(depth: int = 1200) -> str:
    # In _caterpillar(depth), leaf i is node 2i - 1 (leaf 0 is node 0) and the
    # group closed after leaf i is node 2i, with clade {0, ..., i}.
    lines = [
        f"one\t{x}\t{2 * int(x) - 1 if x != '0' else 0}"
        for x in sorted(str(i) for i in range(depth + 1))
    ]
    labels = ["0"]
    for i in range(1, depth + 1):
        bisect.insort(labels, str(i))
        lines.append(f"one\t{','.join(labels)}\t{2 * i}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cmd", ["validate", "mcc wgt", "iso", "clades"])
def test_deep_input_is_answered(files, capsys, cmd):
    # 1200 nesting levels pass Python's default recursion limit; nothing
    # recurses per level, so the input gets its answer. `star` is left out
    # on purpose: its walk is quadratic in the internal nodes, so it takes
    # 4-5 s here (2-core x86_64, Python 3.11.7).
    expected = {
        "validate": "nodes=2401 internal=1200 leaves=1201 reticulations=0 weakly_galled=true\n",
        "mcc wgt": "delta=0 common_size=1200\n",
        "iso": "isomorphic\n",
        "clades": _deep_clades(),
    }
    path = files("deep.nwk", _caterpillar(1200))
    argv = cmd.split() + [path] * (2 if cmd in ("mcc wgt", "iso") else 1)
    assert run(capsys, argv) == (0, expected[cmd], "")


def test_clades_of_a_deep_caterpillar_finish(files):
    # Each clade's labels must cost one pass over its value's width, or this
    # listing grows with the cube of the depth. The timeout only guards
    # against a hang.
    path = files("deep.nwk", _caterpillar(3000))
    proc = subprocess.run(
        [sys.executable, "-m", "phylocontract", "clades", path],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == _deep_clades(3000)


def test_memory_error_exits_two(files, capsys, monkeypatch):
    # Running out of memory is reported like any other refused input.
    def exhaust(n1, n2):
        raise MemoryError

    monkeypatch.setattr(cli, "solve", exhaust)
    path = files("g1.nwk", G1_TEXT)
    code, out, err = run(capsys, ["mcc", "wgt", path, path])
    assert (code, out) == (2, "")
    assert err == "error: OutOfMemory: not enough memory to process the input\n"


# -- iso --------------------------------------------------------------------------


def test_iso_yes(files, capsys):
    f = files("g1.nwk", G1_TEXT)
    code, out, _ = run(capsys, ["iso", f, f])
    assert code == 0 and out == "isomorphic\n"


def test_iso_no_exits_one(files, capsys):
    code, out, _ = run(capsys, ["iso", files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)])
    assert code == 1 and out == "not isomorphic\n"


def test_iso_on_many_internal_nodes(files, capsys):
    # 3640 nodes, 1440 of them internal, but only 16 levels deep: the
    # backtracking search must not be bounded by the recursion limit.
    n = random_wgt(2200, 20, 0)
    assert is_isomorphic(n, n)
    f = files("big.nwk", write_enewick(n))
    code, out, err = run(capsys, ["iso", f, f])
    assert (code, out, err) == (0, "isomorphic\n", "")


# -- contract ----------------------------------------------------------------------

TRIANGLE_AB = "(((a)#H1,b),#H1);"  # root 4, chord 4->1 has witness path [4, 3, 1]


def test_contract_admissible_edge(files, capsys):
    code, out, _ = run(capsys, ["contract", files("t.nwk", TRIANGLE_AB), "--edge", "4,3"])
    assert code == 0 and out == "((a),b);\n"


def test_contract_inadmissible_reports_alternative_path(files, capsys):
    code, out, err = run(capsys, ["contract", files("t.nwk", TRIANGLE_AB), "--edge", "4,1"])
    assert code == 2 and out == ""
    assert err.startswith("error: InadmissibleContraction:")
    assert "[4, 3, 1]" in err


def test_contract_force_on_cycle_maker_is_structured(files, capsys):
    code, _, err = run(
        capsys, ["contract", files("t.nwk", TRIANGLE_AB), "--edge", "4,1", "--force"]
    )
    assert code == 2
    assert err.startswith("error: CyclicGraph:")


def test_contract_force_refuses_an_unlabeled_sink(files, capsys):
    # Absorbing a leaf that is its parent's only child leaves a sink with no
    # label, which no output format can carry.
    f = files("t.nwk", "(((a),b),c);")
    code, out, err = run(capsys, ["contract", f, "--edge", "1,a", "--force"])
    assert code == 2 and out == ""
    assert err.startswith("error: UnlabeledLeaf:") and "(1,0)" in err
    # a leaf with a sibling is absorbed as before, and the result reads back
    f = files("u.nwk", "((a,b),c);")
    code, out, _ = run(capsys, ["contract", f, "--edge", "2,a", "--force"])
    assert code == 0 and out == "((b),c);\n"
    assert parse_enewick(out).num_internal == 2


def test_contract_edge_names_prefer_leaf_labels(files, capsys):
    # In ((1,2),3) the string "2" names the leaf, not internal node 2, so
    # "4,2" resolves to the non-edge (root, leaf 2).
    code, _, err = run(capsys, ["contract", files("t3a.nwk", T3A_TEXT), "--edge", "4,2"])
    assert code == 2 and err.startswith("error: NotAnEdge:")
    # with alphabetic labels the same strings fall through to node ids
    code, out, _ = run(capsys, ["contract", files("abc.nwk", "((a,b),c);"), "--edge", "4,2"])
    assert code == 0
    assert parse_enewick(out).num_internal == 1


def test_contract_edge_argument_validation(files, capsys):
    f = files("t.nwk", TRIANGLE_AB)
    code, _, err = run(capsys, ["contract", f, "--edge", "4"])
    assert code == 2 and err.startswith("error: InvalidParameters:")
    code, _, err = run(capsys, ["contract", f, "--edge", "zz,b"])
    assert code == 2 and err.startswith("error: UnknownNode:")
    code, _, err = run(capsys, ["contract", f, "--edge", "9,4"])
    assert code == 2 and err.startswith("error: UnknownNode:")


# -- star and clades -----------------------------------------------------------------


def test_star_prints_sequence_then_star(files, capsys):
    cat = files("cat.nwk", "(((((1,2),3),4),5),6);")
    code, out, _ = run(capsys, ["star", cat])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "(1,2,3,4,5,6);"
    steps = lines[:-1]
    assert len(steps) == 4  # 5 internal nodes, star needs |I| - 1 merges
    assert all(len(s.split()) == 2 for s in steps)


def test_clades_listing_is_frozen_for_g1(files, capsys):
    code, out, _ = run(capsys, ["clades", files("g1.nwk", G1_TEXT)])
    assert code == 0
    assert out == (
        "one\t1\t0,1\n"
        "one\t2\t2\n"
        "one\t3\t4\n"
        "one\t1,2,3\t6\n"
        "two\t1,2\t1|3\n"
        "two\t1,3\t1|5\n"
        "two\t1,2,3\t3|5\n"
    )


def test_clades_requires_weakly_galled(files, capsys):
    ladder = files("lad.nwk", "(1,2,(((3,(4)#H1),(#H1)#H2),#H2));")
    code, _, err = run(capsys, ["clades", ladder])
    assert code == 2 and err.startswith("error: NotWeaklyGalled:")


# -- mcc ---------------------------------------------------------------------------


def test_mcc_wgt_reports_delta_and_size(files, capsys):
    code, out, _ = run(
        capsys, ["mcc", "wgt", files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)]
    )
    assert code == 0
    assert out == "delta=2 common_size=1\n"


def test_mcc_wgt_emit_and_witness(files, capsys, tmp_path):
    emit = str(tmp_path / "m.nwk")
    wit = str(tmp_path / "w.json")
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)
    code, out, _ = run(capsys, ["mcc", "wgt", a, b, "--emit", emit, "--witness", wit])
    assert code == 0
    assert f"wrote {emit}" in out and f"wrote {wit}" in out

    common = parse_enewick(Path(emit).read_text())
    assert is_isomorphic(common, parse_enewick(STAR3_TEXT))

    payload = json.loads(Path(wit).read_text())
    assert isinstance(payload, list) and len(payload) == 2
    for obj, src in zip(payload, (T3A_TEXT, T3B_TEXT)):
        n = parse_enewick(src)
        assert all(key.startswith("m") for key in obj)
        used = [u for members in obj.values() for u in members]
        assert sorted(used) == sorted(str(u) for u in n.internal_nodes())


def test_witness_file_is_indented_json_of_both_witnesses(fixture_dir, capsys, tmp_path):
    # every ordered fixture pair on one leaf set, through both solvers: the
    # --witness file is byte for byte json.dumps(..., indent=2) of the
    # in-process witnesses, or absent when the call is refused
    nets = {
        p.name: parse_enewick(p.read_text(encoding="utf-8"))
        for p in sorted(fixture_dir.glob("*.nwk"))
    }
    wit = tmp_path / "w.json"
    written, parts_seen = 0, set()
    for (name1, n1), (name2, n2) in itertools.product(nets.items(), repeat=2):
        if n1.leaf_universe != n2.leaf_universe:
            continue
        for mode, fn in (("wgt", solve), ("exact", exact_mcc)):
            wit.unlink(missing_ok=True)
            files = [str(fixture_dir / name) for name in (name1, name2)]
            code, _, err = run(capsys, ["mcc", mode, *files, "--witness", str(wit)])
            try:
                _, m, w1, w2 = fn(n1, n2)
            except PhyloError as exc:
                assert (code, err, wit.exists()) == (2, f"error: {exc.code}: {exc}\n", False)
                continue
            want = json.dumps([_witness_json(w1), _witness_json(w2)], indent=2) + "\n"
            assert code == 0 and wit.read_bytes() == want.encode(), (mode, name1, name2)
            written += 1
            parts_seen.add(m.num_internal)
    assert written >= 20 and 1 in parts_seen and max(parts_seen) >= 4, (written, parts_seen)


def test_mcc_wgt_quiet_suppresses_wrote_lines(files, capsys, tmp_path):
    emit = str(tmp_path / "m.nwk")
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)
    code, out, _ = run(capsys, ["--quiet", "mcc", "wgt", a, b, "--emit", emit])
    assert code == 0
    assert out == "delta=2 common_size=1\n"


def test_mcnc_threshold_is_strict(files, capsys):
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)
    assert run(capsys, ["mcc", "wgt", a, b, "--mcnc", "0"])[0] == 0
    assert run(capsys, ["mcc", "wgt", a, b, "--mcnc", "1"])[0] == 1


def test_mcc_exact_agrees_with_wgt(files, capsys):
    a, b = files("a.nwk", G1_TEXT), files("b.nwk", STAR3_TEXT)
    _, out_wgt, _ = run(capsys, ["mcc", "wgt", a, b])
    _, out_exact, _ = run(capsys, ["mcc", "exact", a, b])
    assert out_wgt == out_exact == "delta=3 common_size=1\n"


def test_mcc_exact_budget_exhaustion(files, capsys):
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)
    code, _, err = run(capsys, ["mcc", "exact", a, b, "--budget", "1"])
    assert code == 2 and err.startswith("error: BudgetExhausted:")


@pytest.mark.parametrize(
    "flag,at_zero", [("--budget", "BudgetExhausted"), ("--max-internal", "SizeCapExceeded")]
)
def test_mcc_exact_refuses_negative_limits(files, capsys, flag, at_zero):
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)
    code, out, err = run(capsys, ["mcc", "exact", a, b, flag, "-1"])
    assert (code, out) == (2, "")
    assert err == f"error: InvalidParameters: {flag} must be at least 0, got -1\n"
    # 0 is a valid limit, which these inputs exceed.
    code, out, err = run(capsys, ["mcc", "exact", a, b, flag, "0"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {at_zero}: ")


def test_mcc_exact_size_cap(files, capsys):
    big = "((((((((((((1,2),3),4),5),6),7),8),9),10),11),12),13);"
    a, b = files("a.nwk", big), files("b.nwk", big)
    code, _, err = run(capsys, ["mcc", "exact", a, b])
    assert code == 2 and err.startswith("error: SizeCapExceeded:")
    assert run(capsys, ["mcc", "exact", a, b, "--max-internal", "12"])[0] == 0


def test_mcc_wgt_leaf_set_mismatch(files, capsys):
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", "((1,2),4);")
    code, _, err = run(capsys, ["mcc", "wgt", a, b])
    assert code == 2 and err.startswith("error: LeafSetMismatch:")


# -- dist ---------------------------------------------------------------------------


def test_dist_upper_with_delta(files, capsys):
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)
    code, out, _ = run(capsys, ["dist", "upper", a, b])
    assert code == 0
    assert out == "upper=2\ndelta=2\n"


def test_dist_upper_without_delta_on_non_wgt(files, capsys):
    ladder = files("lad.nwk", "(1,2,(((3,(4)#H1),(#H1)#H2),#H2));")
    partner = files("p.nwk", "(1,2,(3,4));")
    code, out, err = run(capsys, ["dist", "upper", ladder, partner])
    assert code == 0
    assert out == "upper=6\n"
    assert "weakly galled" in err


def test_dist_upper_names_degree2_reason(files, capsys):
    # weakly galled, but with internal degree-2 nodes the DP does not apply
    unary = files("u.nwk", "(((1)),2,3);")
    star = files("s.nwk", "(1,2,3);")
    code, out, err = run(capsys, ["dist", "upper", unary, star])
    assert (code, out, err) == (
        0,
        "upper=2\n",
        "delta requires inputs without internal degree-2 nodes\n",
    )


def test_dist_upper_rejects_different_leaf_sets(files, capsys):
    a, b = files("a.nwk", T3A_TEXT), files("b.nwk", "((1,2),4);")
    code, out, err = run(capsys, ["dist", "upper", a, b])
    assert (code, out) == (2, "")
    assert err == "error: LeafSetMismatch: ('1', '2', '3') vs ('1', '2', '4')\n"


# -- gen ----------------------------------------------------------------------------


def test_gen_diameter_writes_pair(files, capsys, tmp_path):
    prefix = str(tmp_path / "dp")
    code, out, _ = run(
        capsys,
        ["gen", "diameter", "--leaves", "4", "--m", "3", "--mprime", "3", "--out-prefix", prefix],
    )
    assert code == 0
    assert f"wrote {prefix}1.nwk" in out and f"wrote {prefix}2.nwk" in out
    t1, t2 = Path(prefix + "1.nwk").read_text(), Path(prefix + "2.nwk").read_text()
    n1, n2 = parse_enewick(t1), parse_enewick(t2)
    assert n1.num_internal == 3 and n2.num_internal == 3
    a, b = files("a.nwk", t1), files("b.nwk", t2)
    _, mcc_out, _ = run(capsys, ["mcc", "wgt", a, b])
    assert mcc_out.startswith("delta=4 ")


def test_gen_diameter_without_construction_exits_two(capsys, tmp_path):
    prefix = str(tmp_path / "dp")
    code, out, err = run(
        capsys,
        ["gen", "diameter", "--leaves", "4", "--m", "6", "--mprime", "9", "--out-prefix", prefix],
    )
    assert code == 2 and out == ""
    assert err.startswith("error: InvalidParameters: ")
    assert not list(tmp_path.iterdir())


def test_gen_reduction_prints_k_then_pair(files, capsys):
    inst = files("inst.txt", "1 2\n1 2\n")
    code, out, _ = run(capsys, ["gen", "reduction1", "--instance", inst])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k=3"
    assert len(lines) == 3 and all(t.endswith(";") for t in lines[1:])
    code, out, _ = run(capsys, ["gen", "reduction2", "--instance", inst])
    assert code == 0
    assert out.splitlines()[0] == "k=4"


@pytest.mark.parametrize("cmd", ["reduction1", "reduction2"])
def test_gen_reduction_needs_a_set(files, capsys, cmd):
    inst = files("inst.txt", "1 2\n")  # a universe and no set
    code, out, err = run(capsys, ["gen", cmd, "--instance", inst])
    assert (code, out) == (2, "")
    assert err == "error: InvalidParameters: need at least one set and one element\n"


def test_gen_random_wgt_frozen_and_seed_forms(files, capsys):
    want = "(((1,(2)#H1),((3,(4)#H2),#H2,6),5),#H1);\n"
    code, out, _ = run(capsys, ["gen", "random-wgt", "--leaves", "6", "--retics", "2", "--seed", "11"])
    assert code == 0 and out == want
    # the global --seed flag feeds the generator when the subcommand omits it
    code, out, _ = run(capsys, ["--seed", "11", "gen", "random-wgt", "--leaves", "6", "--retics", "2"])
    assert code == 0 and out == want


def test_gen_random_wgt_default_seed_is_zero(capsys):
    _, out_default, _ = run(capsys, ["gen", "random-wgt", "--leaves", "5", "--retics", "1"])
    _, out_zero, _ = run(capsys, ["gen", "random-wgt", "--leaves", "5", "--retics", "1", "--seed", "0"])
    assert out_default == out_zero


def test_gen_output_is_deterministic(files, capsys):
    inst = files("inst.txt", "a b c\na b\nb c\n")
    first = run(capsys, ["gen", "reduction2", "--instance", inst])
    second = run(capsys, ["gen", "reduction2", "--instance", inst])
    assert first == second


# -- edgelist format -------------------------------------------------------------------


def test_edgelist_validate(files, capsys):
    f = files("g1.edges", G1_EDGES)
    code, out, _ = run(capsys, ["--format", "edgelist", "validate", f])
    assert code == 0
    assert out == "nodes=7 internal=4 leaves=3 reticulations=1 weakly_galled=true\n"


def test_edgelist_mcc(files, capsys):
    f = files("g1.edges", G1_EDGES)
    code, out, _ = run(capsys, ["--format", "edgelist", "mcc", "wgt", f, f])
    assert code == 0
    assert out == "delta=0 common_size=4\n"


def test_edgelist_gen_pair_on_stdout_is_separated(files, capsys):
    inst = files("inst.txt", "1 2\n1 2\n")
    code, out, _ = run(capsys, ["--format", "edgelist", "gen", "reduction2", "--instance", inst])
    assert code == 0
    assert "# network 2" in out
    assert out.splitlines()[0] == "k=4"


def test_edgelist_gen_files_use_edges_extension(capsys, tmp_path):
    prefix = str(tmp_path / "ed")
    code, _, _ = run(
        capsys,
        ["--format", "edgelist", "gen", "diameter", "--leaves", "4", "--m", "2", "--mprime", "2", "--out-prefix", prefix],
    )
    assert code == 0
    assert (tmp_path / "ed1.edges").exists() and (tmp_path / "ed2.edges").exists()


def test_wrong_format_reports_syntax_error(files, capsys):
    f = files("g1.edges", G1_EDGES)
    code, _, err = run(capsys, ["mcc", "wgt", f, f])  # default enewick reader
    assert code == 2 and err.startswith("error: SyntaxError:")


# -- one parser per process ---------------------------------------------------------


def _read_outputs(outputs) -> dict:
    return {p: Path(p).read_bytes() if Path(p).exists() else None for p in outputs}


def _outcome(capsys, argv, outputs=()):
    """Exit code, stdout, stderr and output files of one in-process call."""
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _read_outputs(outputs)


def _alone(argv, outputs=()):
    """The same as `_outcome`, for the call made alone in a fresh
    `python -m phylocontract` process."""
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "phylocontract", *argv],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr, _read_outputs(outputs)


def _in_turn(capsys, calls) -> list:
    """Run (argv, output paths) calls back to back in this process; each must
    match the same call made alone. Returns their outcomes."""
    outcomes = [_outcome(capsys, argv, outputs) for argv, outputs in calls]
    for (argv, outputs), outcome in zip(calls, outcomes):
        assert outcome == _alone(argv, outputs), argv
    return outcomes


@pytest.fixture
def pair(fixture_dir, tmp_path):
    """argv tail for `mcc` on t3a/t3b writing both output files, and their paths."""
    emit, wit = str(tmp_path / "m.nwk"), str(tmp_path / "w.json")
    files = [str(fixture_dir / "t3a.nwk"), str(fixture_dir / "t3b.nwk")]
    return [*files, "--emit", emit, "--witness", wit], (emit, wit)


def test_budget_does_not_outlive_its_call(capsys, pair):
    tail, outputs = pair
    calls = [
        (["mcc", "exact", *tail, "--budget", "1"], outputs),
        (["mcc", "exact", *tail], outputs),
    ]
    assert [code for code, *_ in _in_turn(capsys, calls)] == [2, 0]


def test_mcnc_does_not_outlive_its_call(capsys, fixture_dir, pair):
    tail, outputs = pair
    other = [str(fixture_dir / f) for f in ("g1.nwk", "t3a.nwk")] + tail[2:]
    calls = [(["mcc", "wgt", *tail, "--mcnc", "1"], outputs), (["mcc", "wgt", *tail], outputs)]
    calls.append((["mcc", "wgt", *other], outputs))
    outcomes = _in_turn(capsys, calls)
    assert [code for code, *_ in outcomes] == [1, 0, 0]
    assert None not in outcomes[2][3].values()


def test_global_seed_does_not_outlive_its_call(capsys):
    gen = ["gen", "random-wgt", "--leaves", "6", "--retics", "2"]
    seeded, default = _in_turn(capsys, [(["--seed", "7", *gen], ()), (gen, ())])
    assert seeded[0] == default[0] == 0
    assert default[1] == "((1)#H1,(#H1,((2)#H2,(#H2,5,6))),(3,4));\n"  # seed 0


@pytest.mark.parametrize("first", [["mcc"], ["--help"], ["mcc", "exact", "--help"]])
def test_parser_exit_leaves_later_calls_unchanged(capsys, monkeypatch, pair, first):
    monkeypatch.setenv("COLUMNS", "80")  # same help width in both processes
    tail, outputs = pair
    calls = [(first, ()), (["mcc", "exact", *tail], outputs)]
    codes = [code for code, *_ in _in_turn(capsys, calls)]
    assert codes == [2 if first == ["mcc"] else 0, 0]


def test_help_width_is_read_at_each_call(capsys, monkeypatch):
    helps = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = _outcome(capsys, ["mcc", "exact", "--help"])
        assert helps[columns] == _alone(["mcc", "exact", "--help"])
    assert helps["60"][1] != helps["120"][1]


BUILD_COUNT_SCRIPT = """
import argparse
import sys

built = 0
init = argparse.ArgumentParser.__init__


def counted(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counted
import phylocontract.cli as cli

print(built)
for _ in range(2):
    cli.main(["--quiet", "validate", sys.argv[1]])
    print(built)
"""


def test_parser_is_built_once_and_not_at_import(fixture_dir):
    # A fresh process: other tests here may already have built the parser.
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_COUNT_SCRIPT, str(fixture_dir / "g1.nwk")],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, first, second = map(int, proc.stdout.split())
    assert at_import == 0 and first > 0 and second == first

