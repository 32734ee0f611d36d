"""Command-line interface.

Subcommands: validate, iso, contract, star, clades, mcc (wgt|exact),
dist upper, gen (diameter|reduction1|reduction2|random-wgt).

Exit codes: 0 success / boolean yes, 1 boolean no (iso mismatch, common
contraction not larger than the --mcnc threshold), 2 input or usage errors,
reported on stderr as `error: CODE: message`.

`main(argv)` may be called any number of times in one process. The parser
is built on the first call and reused by every later one; nothing is built
at import, and a one-shot run builds it once as before.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .edit_ops import Contraction, _star_walk, contract, contract_admissible
from .errors import (
    CyclicGraph,
    Degree2Node,
    InvalidParameters,
    LeafSetMismatch,
    NotWeaklyGalled,
    OutOfMemory,
    PhyloError,
    SyntaxError as ParseError,
    UnknownNode,
    UnlabeledLeaf,
)
from .galled import build_clade_index, is_weakly_galled
from .generators import (
    diameter_pair,
    parse_set_splitting,
    random_wgt,
    reduction_deg_bounded,
    reduction_five_leaves,
)
from .io_enewick import parse_edgelist, parse_enewick, write_edgelist, write_enewick
from .mcc_dp import solve
from .mcc_oracle import exact_mcc
from .network_core import Network, is_acyclic, is_isomorphic


# surrogateescape turns each byte that does not decode into one of these
_UNDECODED = re.compile("[\udc80-\udcff]")


def _read_text(path: str) -> str:
    """A file's text as UTF-8. A byte that does not decode is a SyntaxError
    at its line and column, counted as the parser counts them."""
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    bad = _UNDECODED.search(text)
    if bad is None:
        return text
    pos = bad.start()
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    byte = ord(bad.group()) - 0xDC00
    raise ParseError(f"byte 0x{byte:02x} does not decode as UTF-8", line=line, col=col)


def _read(path: str, fmt: str) -> Network:
    text = _read_text(path)
    return parse_enewick(text) if fmt == "enewick" else parse_edgelist(text)


def _render(n: Network, fmt: str) -> str:
    out = write_enewick(n) if fmt == "enewick" else write_edgelist(n)
    return out if out.endswith("\n") else out + "\n"


def _emit(n: Network, fmt: str) -> None:
    sys.stdout.write(_render(n, fmt))


def _resolve(n: Network, name: str) -> int:
    """Node reference: a leaf label, else an integer node id."""
    for u, lab in n.leaf_label.items():
        if lab == name:
            return u
    try:
        u = int(name)
    except ValueError:
        raise UnknownNode(f"no leaf labeled {name!r} and not an integer id") from None
    if u not in n.succ:
        raise UnknownNode(f"no node with id {u}")
    return u


# --- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    n = _read(args.file, args.format)
    if not args.quiet:
        wg = "true" if is_weakly_galled(n) else "false"
        print(
            f"nodes={len(n.succ)} internal={n.num_internal} "
            f"leaves={len(n.leaf_label)} reticulations={len(n.reticulations())} "
            f"weakly_galled={wg}"
        )
    if args.dot:
        print(n.to_dot())
    return 0


def cmd_iso(args) -> int:
    a = _read(args.file1, args.format)
    b = _read(args.file2, args.format)
    same = is_isomorphic(a, b)
    if not args.quiet:
        print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def cmd_contract(args) -> int:
    n = _read(args.file, args.format)
    fields = args.edge.split(",")
    if len(fields) != 2:
        raise InvalidParameters(f"--edge expects U,V, got {args.edge!r}")
    u = _resolve(n, fields[0].strip())
    v = _resolve(n, fields[1].strip())
    if args.force:
        w = n.fresh_id()
        m = contract(n, Contraction(u, v, w))
        if not is_acyclic(m):
            raise CyclicGraph(f"contracting ({u},{v}) creates a directed cycle")
        if not m.succ[w]:  # v was a leaf and u's only child
            raise UnlabeledLeaf(f"contracting ({u},{v}) leaves sink {w} without a label")
    else:
        m = contract_admissible(n, u, v)
    _emit(m, args.format)
    return 0


def cmd_star(args) -> int:
    n = _read(args.file, args.format)
    steps, star = [], n
    for step, star in _star_walk(n):
        steps.append(step)
    for step in steps:
        print(f"{step.u} {step.v}")
    _emit(star, args.format)
    return 0


def cmd_clades(args) -> int:
    n = _read(args.file, args.format)
    if not is_weakly_galled(n):
        raise NotWeaklyGalled("clade index is defined for weakly galled trees")
    idx = build_clade_index(n)

    def order(table):
        """(size, labels, value) per clade value, by size then labels; each
        value's labels are computed once."""
        return sorted((bits.bit_count(), idx.labels(bits), bits) for bits in table)

    for _, labels, bits in order(idx.one_clades):
        nodes = ",".join(str(u) for u in idx.one_clades[bits])
        print(f"one\t{','.join(labels)}\t{nodes}")
    for _, labels, bits in order(idx.two_clades):
        pairs = ",".join(f"{x}|{y}" for x, y in idx.two_clades[bits])
        print(f"two\t{','.join(labels)}\t{pairs}")
    return 0


def _witness_json(w) -> dict:
    return {
        f"m{g}": [str(u) for u in sorted(members)]
        for g, members in sorted(w.parts.items())
    }


def _witness_text(ws) -> str:
    """`json.dumps([_witness_json(w) for w in ws], indent=2) + "\n"`, written
    directly: its keys and members are `m` and decimal digits, which JSON
    does not escape. ws and each witness's parts are non-empty, as are the
    parts themselves: every valid network has an internal root, and
    `validate_witness` rejects an empty part, so `common_contraction`
    returns no other witness."""
    objects = []
    for w in ws:
        entries = [
            f'    "m{g}": [\n      "' + '",\n      "'.join(map(str, sorted(members))) + '"\n    ]'
            for g, members in sorted(w.parts.items())
        ]
        objects.append("  {\n" + ",\n".join(entries) + "\n  }")
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _report_mcc(args, delta: int, m: Network, w1, w2) -> int:
    print(f"delta={delta} common_size={m.num_internal}")
    if getattr(args, "emit", None):
        Path(args.emit).write_text(_render(m, args.format), encoding="utf-8")
        if not args.quiet:
            print(f"wrote {args.emit}")
    if getattr(args, "witness", None):
        Path(args.witness).write_text(_witness_text((w1, w2)), encoding="utf-8")
        if not args.quiet:
            print(f"wrote {args.witness}")
    if args.mcnc is not None:
        return 0 if m.num_internal > args.mcnc else 1
    return 0


def cmd_mcc_wgt(args) -> int:
    n1 = _read(args.file1, args.format)
    n2 = _read(args.file2, args.format)
    delta, m, w1, w2 = solve(n1, n2)
    return _report_mcc(args, delta, m, w1, w2)


def cmd_mcc_exact(args) -> int:
    n1 = _read(args.file1, args.format)
    n2 = _read(args.file2, args.format)
    delta, m, w1, w2 = exact_mcc(
        n1, n2, max_internal=args.max_internal, budget=args.budget
    )
    return _report_mcc(args, delta, m, w1, w2)


def cmd_dist_upper(args) -> int:
    n1 = _read(args.file1, args.format)
    n2 = _read(args.file2, args.format)
    if n1.leaf_universe != n2.leaf_universe:
        raise LeafSetMismatch(f"{n1.leaf_universe} vs {n2.leaf_universe}")
    print(f"upper={n1.num_internal + n2.num_internal - 2}")
    try:
        delta, _, _, _ = solve(n1, n2)
    except (NotWeaklyGalled, Degree2Node) as exc:
        if not args.quiet:
            need = "weakly galled inputs"
            if isinstance(exc, Degree2Node):
                need = "inputs without internal degree-2 nodes"
            print(f"delta requires {need}", file=sys.stderr)
    else:
        print(f"delta={delta}")
    return 0


def _write_pair(args, n1: Network, n2: Network) -> None:
    ext = "nwk" if args.format == "enewick" else "edges"
    if getattr(args, "out_prefix", None):
        for i, n in ((1, n1), (2, n2)):
            path = f"{args.out_prefix}{i}.{ext}"
            Path(path).write_text(_render(n, args.format), encoding="utf-8")
            if not args.quiet:
                print(f"wrote {path}")
    else:
        _emit(n1, args.format)
        if args.format == "edgelist":
            print("# network 2")
        _emit(n2, args.format)


def cmd_gen_diameter(args) -> int:
    n1, n2 = diameter_pair(args.leaves, args.m, args.mprime)
    _write_pair(args, n1, n2)
    return 0


def cmd_gen_reduction(args) -> int:
    inst = parse_set_splitting(_read_text(args.instance))
    build = reduction_deg_bounded if args.which == 1 else reduction_five_leaves
    n1, n2, k = build(inst)
    print(f"k={k}")
    _write_pair(args, n1, n2)
    return 0


def cmd_gen_random_wgt(args) -> int:
    n = random_wgt(args.leaves, args.retics, args.seed)
    _emit(n, args.format)
    return 0


# --- parser ---------------------------------------------------------------


# Parsing never mutates the parser (defaults, the SUPPRESS default of
# `gen random-wgt --seed` and required subcommands live on the actions, not
# in per-call state), and help text sizes its formatter when printed, so
# one parser serves every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="phylocontract",
        description="Contraction calculus and common contractions of phylogenetic networks.",
    )
    p.add_argument(
        "--format",
        choices=("enewick", "edgelist"),
        default="enewick",
        help="network file format (default: enewick)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for generators")
    p.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="parse a network and print a summary")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true", help="also print DOT text")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("iso", help="test two networks for isomorphism")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.set_defaults(func=cmd_iso)

    sp = sub.add_parser("contract", help="contract one edge")
    sp.add_argument("file")
    sp.add_argument("--edge", required=True, metavar="U,V", help="leaf label or node id each")
    sp.add_argument("--force", action="store_true", help="skip the admissibility check")
    sp.set_defaults(func=cmd_contract)

    sp = sub.add_parser("star", help="contraction sequence to the star and the star itself")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_star)

    sp = sub.add_parser("clades", help="1-clades and 2-clades with witnessing nodes")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_clades)

    mcc = sub.add_parser("mcc", help="maximum common contraction")
    msub = mcc.add_subparsers(dest="mode", required=True)
    for mode, fn in (("wgt", cmd_mcc_wgt), ("exact", cmd_mcc_exact)):
        sp = msub.add_parser(
            mode,
            help="polynomial solver (weakly galled trees)"
            if mode == "wgt"
            else "brute-force oracle (small instances)",
        )
        sp.add_argument("file1")
        sp.add_argument("file2")
        sp.add_argument("--emit", metavar="FILE", help="write the common contraction")
        sp.add_argument("--witness", metavar="FILE", help="write witness partitions as JSON")
        sp.add_argument(
            "--mcnc",
            type=int,
            metavar="K",
            help="exit 0 iff the common contraction has more than K internal nodes",
        )
        if mode == "exact":
            sp.add_argument("--max-internal", type=int, default=10)
            sp.add_argument("--budget", type=int, default=None)
        sp.set_defaults(func=fn)

    dist = sub.add_parser("dist", help="dissimilarity bounds")
    dsub = dist.add_subparsers(dest="mode", required=True)
    sp = dsub.add_parser("upper", help="|I1|+|I2|-2 bound, plus delta when weakly galled")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.set_defaults(func=cmd_dist_upper)

    gen = sub.add_parser("gen", help="construction generators")
    gsub = gen.add_subparsers(dest="mode", required=True)

    sp = gsub.add_parser("diameter", help="pair attaining delta = m + mprime - 2")
    sp.add_argument("--leaves", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--mprime", type=int, required=True)
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_gen_diameter)

    for which, name, blurb in (
        (1, "reduction1", "degree-bounded hardness pair (k=3)"),
        (2, "reduction2", "five-leaf hardness pair (k=4)"),
    ):
        sp = gsub.add_parser(name, help=blurb)
        sp.add_argument("--instance", required=True, help="set-splitting instance file")
        sp.add_argument("--out-prefix")
        sp.set_defaults(func=cmd_gen_reduction, which=which)

    sp = gsub.add_parser("random-wgt", help="random weakly galled tree")
    sp.add_argument("--leaves", type=int, required=True)
    sp.add_argument("--retics", type=int, required=True)
    sp.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_gen_random_wgt)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        # Nothing recurses, so only memory bounds depth (the DP's bitmasks
        # grow quadratically with it); such input is refused like any other.
        error: PhyloError = OutOfMemory("not enough memory to process the input")
    except PhyloError as exc:
        error = exc
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return 2
    print(f"error: {error.code}: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
