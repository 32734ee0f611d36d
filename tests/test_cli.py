"""Command-line surface: outputs, exit codes, and the error channel."""

import json
from pathlib import Path

import pytest

from conftest import G1_TEXT, STAR3_TEXT, T3A_TEXT, T3B_TEXT
from phylocontract.cli import main
from phylocontract.io_enewick import parse_enewick
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


def test_validate_rejects_bad_syntax(files, capsys):
    code, out, err = run(capsys, ["validate", files("bad.nwk", "((1,2);")])
    assert code == 2 and out == ""
    assert err.startswith("error: SyntaxError:")
    assert "line 1" in err


def test_missing_file_reports_ioerror(tmp_path, capsys):
    code, _, err = run(capsys, ["validate", str(tmp_path / "absent.nwk")])
    assert code == 2
    assert err.startswith("error: IOError:")


def _caterpillar(depth: int) -> str:
    text = "0"
    for i in range(1, depth + 1):
        text = f"({text},{i})"
    return text + ";"


@pytest.mark.parametrize("cmd", ["validate", "mcc wgt", "iso", "star", "clades"])
def test_deep_input_exits_two(files, capsys, cmd):
    # 1200 nesting levels pass Python's default recursion limit; the input is
    # refused with the structured error instead of a traceback.
    path = files("deep.nwk", _caterpillar(1200))
    argv = cmd.split() + [path] * (2 if cmd in ("mcc wgt", "iso") else 1)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: NestingTooDeep:")


# -- iso --------------------------------------------------------------------------


def test_iso_yes(files, capsys):
    f = files("g1.nwk", G1_TEXT)
    code, out, _ = run(capsys, ["iso", f, f])
    assert code == 0 and out == "isomorphic\n"


def test_iso_no_exits_one(files, capsys):
    code, out, _ = run(capsys, ["iso", files("a.nwk", T3A_TEXT), files("b.nwk", T3B_TEXT)])
    assert code == 1 and out == "not isomorphic\n"


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
