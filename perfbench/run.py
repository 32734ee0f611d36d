"""Benchmark: `phylocontract mcc wgt|exact` over seeded corpora of network pairs.

One operation is one CLI invocation through `phylocontract.cli.main`, run
in-process with stdout captured: argv -> read both files -> parse ->
validate -> solve -> print `delta=` -> write the --emit and --witness
files. One client runs operations back to back (a closed loop, no
threads) for --seconds of wall time; each workload is its own process.

    python3 perfbench/run.py --workload wgt_pairs --seed 0 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics. --trace 1 additionally replays each
operation's pipeline from the benchmark's own calls into the package, one
span per public call, and prints per-layer metrics; the spans and their
rollup go to perfbench/out/trace-<workload>-seed<seed>.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The line before it names every end-to-end metric with
its unit, including fail_share and the tail percentile with its sample
count.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, loglog_slope  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
# Set-up runs at least this many times and for at least SETUP_MIN_S seconds;
# setup_s reports the median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
# Tail percentiles, highest first; op_s_tail takes the first with at least
# ten samples beyond it. Every workload runs well over 100 operations in a
# full-length run, so the ladder stops at p90: the reported percentile is
# then the same on every run instead of jumping to p99 when a run happens
# to pass 1000 operations. Shorter runs fall back to p75 or the median.
TAIL_LADDER = (90.0, 75.0, 50.0)
# The calls cli.main makes, replayed one span each.
PIPELINE = (
    "cli.read_text",
    "io_enewick.parse_enewick",
    "mcc_dp.solve",
    "mcc_oracle.exact_mcc",
    "io_enewick.write_enewick",
    "cli.witness_json",
)


def load_program():
    """Import phylocontract from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "phylocontract" / "__init__.py").is_file():
        raise SystemExit(f"error: no phylocontract sources under {src}")
    sys.path.insert(0, str(src))
    import phylocontract

    if Path(phylocontract.__file__).resolve().parent != (src / "phylocontract").resolve():
        raise SystemExit(f"error: phylocontract imported from {phylocontract.__file__}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small corpus (self-test)")
    p.add_argument(
        "--wrong-reference",
        action="store_true",
        help="corrupt one reference delta, to show the checker fails (self-test)",
    )
    return p.parse_args(argv)


# --- set-up -----------------------------------------------------------------------


def build_corpus(corpus, tracer, args, work: Path):
    """Generate the workload's pairs, write them and return (instances, digest)."""
    rng = random.Random(f"{args.workload}:{args.seed}")
    instances = getattr(corpus, args.workload)(tracer, rng, args.tiny)
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    digest = hashlib.sha256()
    for inst in instances:
        for side, text in enumerate(inst.texts, start=1):
            name = f"{inst.name}.{side}.nwk"
            (work / "in" / name).write_text(text, encoding="utf-8")
            digest.update(f"{name}\n{len(text)}\n".encode())
            digest.update(text.encode())
    return instances, digest.hexdigest()


def expected_digest(workload: str) -> str | None:
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return table.get(str(DEFAULT_SEED), {}).get(workload)


def spread_order(instances) -> list[int]:
    """Instance indices by size, visited in bit-reversed rank order: every
    prefix of a pass, including the pass a run ends in, samples the whole
    size range evenly."""
    by_size = sorted(range(len(instances)), key=lambda i: (instances[i].nodes, i))
    bits = max(1, (len(instances) - 1).bit_length())
    ranks = (int(format(r, f"0{bits}b")[::-1], 2) for r in range(1 << bits))
    return [by_size[r] for r in ranks if r < len(instances)]


# --- one operation ------------------------------------------------------------------


def argv_for(inst, work: Path) -> list[str]:
    argv = ["mcc", inst.mode, *(str(work / "in" / f"{inst.name}.{s}.nwk") for s in (1, 2))]
    argv += ["--emit", str(work / "emit.nwk"), "--witness", str(work / "witness.json")]
    if inst.mcnc is not None:
        argv += ["--mcnc", str(inst.mcnc)]
    return argv


def run_op(cli_main, argv):
    """Run cli.main once; returns (seconds, exit code or None, stdout, stderr,
    exception type name or None). Any Exception, RecursionError included, and
    SystemExit are caught; KeyboardInterrupt propagates."""
    out, err = io.StringIO(), io.StringIO()
    error = rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - tallied per type
            error = type(exc).__name__
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue(), error


def check(inst, rc, stdout: str, stderr: str, work: Path, parse_enewick) -> str | None:
    """Compare one operation's outputs with the instance's reference.
    Returns None when correct, else a failure tag."""
    if rc == 2:
        code = re.match(r"error: (\w+):", stderr)
        return f"exit2:{code.group(1) if code else '?'}"
    if rc != inst.expect_rc:
        return "WrongAnswer:exit_code"
    head = re.match(r"delta=(\d+) common_size=(\d+)\n", stdout)
    if not head:
        return "WrongAnswer:stdout"
    delta, common = int(head.group(1)), int(head.group(2))
    if inst.delta is not None:
        if delta != inst.delta or common != inst.common_size:
            return "WrongAnswer:delta"
    elif common > inst.max_common or delta != sum(inst.internal) - 2 * common:
        return "WrongAnswer:delta"
    try:
        emitted = parse_enewick((work / "emit.nwk").read_text(encoding="utf-8"))
        witness = json.loads((work / "witness.json").read_text(encoding="utf-8"))
    except Exception as exc:  # noqa: BLE001 - an unreadable output is a wrong answer
        return f"WrongAnswer:{type(exc).__name__}"
    if emitted.num_internal != common or set(emitted.leaf_label.values()) != inst.leaves:
        return "WrongAnswer:emit"
    if not (
        isinstance(witness, list)
        and len(witness) == 2
        and all(isinstance(w, dict) and len(w) == common for w in witness)
    ):
        return "WrongAnswer:witness"
    return None


def replay(pc, tracer, inst, work: Path) -> None:
    """The pipeline cli.main runs, one span per public call, then probe calls
    on freshly parsed copies so they neither warm nor reuse the pipeline's
    network caches."""
    from phylocontract.mcc_oracle import connected_partitions

    paths = [work / "in" / f"{inst.name}.{s}.nwk" for s in (1, 2)]
    with tracer.span("replay"):
        texts = [tracer.call("cli.read_text", p.read_text, "utf-8") for p in paths]
        nets = []
        for text in texts:
            nets.append(tracer.call("io_enewick.parse_enewick", pc.parse_enewick, text))
            tracer.count("io_enewick.parse_enewick.bytes", len(text.encode()))
        if inst.mode == "wgt":
            (_, m, w1, w2), stats = tracer.call("mcc_dp.solve", pc.solve_with_stats, *nets)
            tracer.sample("mcc_dp.solve", inst.nodes)
            tracer.count("mcc_dp.fc_entries", stats.fc_entries)
            tracer.count("mcc_dp.fp_entries", stats.fp_entries)
            tracer.count("mcc_dp.fl_entries", stats.fl_entries)
        else:
            _, m, w1, w2 = tracer.call("mcc_oracle.exact_mcc", pc.exact_mcc, *nets)
        text = tracer.call("io_enewick.write_enewick", pc.write_enewick, m)
        tracer.sample("io_enewick.write_enewick", len(m.succ))
        tracer.count("io_enewick.write_enewick.bytes", len(text.encode()))
        tracer.call("cli.witness_json", witness_json, w1, w2)
    with tracer.span("probe"):
        copies = [tracer.call("probe.parse_enewick", pc.parse_enewick, t) for t in texts]
        for c, w in zip(copies, (w1, w2)):
            tracer.call("network_core.validate", pc.validate, c.edges(), c.leaf_label)
            weakly_galled = tracer.call("galled.is_weakly_galled", pc.is_weakly_galled, c)
            tracer.call("galled.has_degree2_node", pc.has_degree2_node, c)
            if weakly_galled:
                found = tracer.call("galled.cycles", pc.cycles, c)
                tracer.count("galled.cycles.count", len(found))
            tracer.call("edit_ops.quotient", pc.quotient, c, list(w.parts.values()))
            tracer.call("edit_ops.validate_witness", pc.validate_witness, c, m, w)
        if inst.mode == "exact":
            partitions = tracer.call(
                "mcc_oracle.connected_partitions",
                lambda n: sum(1 for _ in connected_partitions(n)),
                copies[0],
            )
            tracer.count("mcc_oracle.partitions", partitions)
            tracer.call("mcc_oracle.is_contraction", pc.is_contraction, copies[1], m)


def witness_json(w1, w2) -> str:
    """The --witness payload as the CLI formats it."""
    payload = [
        {f"m{g}": [str(u) for u in sorted(members)] for g, members in sorted(w.parts.items())}
        for w in (w1, w2)
    ]
    return json.dumps(payload, indent=2) + "\n"


# --- metrics ------------------------------------------------------------------------


def percentile(ranked: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def tail(ranked: list[float]) -> tuple[float, float]:
    n = len(ranked)
    q = next((q for q in TAIL_LADDER if n - math.ceil(q / 100 * n) >= 10), 50.0)
    return q, percentile(ranked, q)


def finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def layer_metrics(tracer, ops: int, setups: int) -> dict[str, float]:
    roll = tracer.rollup()
    counts = tracer.counts

    def op_s(name, stat="s"):
        return roll["op"].get(name, {}).get(stat, 0.0) / ops

    def setup_s(name, stat="s"):
        return roll["setup"].get(name, {}).get(stat, 0.0) / setups

    def per_op(name):
        return counts.get(f"op:{name}", 0.0) / ops

    solve_s = op_s("mcc_dp.solve")
    entries = sum(per_op(f"mcc_dp.{t}_entries") for t in ("fc", "fp", "fl"))
    partitions = per_op("mcc_oracle.partitions")
    wgt_s = setup_s("generators.random_wgt")
    wgt_nodes = counts.get("setup:generators.random_wgt.nodes", 0.0) / setups
    return {
        "cli.main.s": op_s("cli.main"),
        "cli.main.overhead_s": op_s("cli.main") - sum(op_s(n) for n in PIPELINE),
        "cli.read_text.s": op_s("cli.read_text"),
        "cli.witness_json.s": op_s("cli.witness_json"),
        "trace.overhead_s": op_s("op") - op_s("cli.main"),
        "io_enewick.parse_enewick.s": op_s("io_enewick.parse_enewick"),
        "io_enewick.parse_enewick.bytes": per_op("io_enewick.parse_enewick.bytes"),
        "io_enewick.write_enewick.s": op_s("io_enewick.write_enewick"),
        "io_enewick.write_enewick.bytes": per_op("io_enewick.write_enewick.bytes"),
        "io_enewick.write_enewick.slope": loglog_slope(tracer.samples["io_enewick.write_enewick"]),
        "network_core.validate.s": op_s("network_core.validate"),
        "galled.is_weakly_galled.s": op_s("galled.is_weakly_galled"),
        "galled.has_degree2_node.s": op_s("galled.has_degree2_node"),
        "galled.cycles.s": op_s("galled.cycles"),
        "galled.cycles.count": per_op("galled.cycles.count"),
        "mcc_dp.solve.s": solve_s,
        "mcc_dp.solve.self_s": op_s("mcc_dp.solve", "self_s"),
        "mcc_dp.solve.slope": loglog_slope(tracer.samples["mcc_dp.solve"]),
        "mcc_dp.us_per_entry": 1e6 * solve_s / entries if entries else 0.0,
        "mcc_dp.fc_entries": per_op("mcc_dp.fc_entries"),
        "mcc_dp.fp_entries": per_op("mcc_dp.fp_entries"),
        "mcc_dp.fl_entries": per_op("mcc_dp.fl_entries"),
        "edit_ops.quotient.s": op_s("edit_ops.quotient"),
        "edit_ops.validate_witness.s": op_s("edit_ops.validate_witness"),
        "edit_ops.contract_admissible.s": setup_s("edit_ops.contract_admissible"),
        "edit_ops.contract_admissible.calls": setup_s("edit_ops.contract_admissible", "calls"),
        "mcc_oracle.exact_mcc.s": op_s("mcc_oracle.exact_mcc"),
        "mcc_oracle.partitions": partitions,
        "mcc_oracle.us_per_partition": (
            1e6 * op_s("mcc_oracle.exact_mcc") / partitions if partitions else 0.0
        ),
        "mcc_oracle.is_contraction.s": op_s("mcc_oracle.is_contraction"),
        "generators.random_wgt.s": wgt_s,
        "generators.random_wgt.calls": setup_s("generators.random_wgt", "calls"),
        "generators.random_wgt.nodes_per_s": wgt_nodes / wgt_s if wgt_s else 0.0,
        "generators.diameter_pair.s": setup_s("generators.diameter_pair"),
        "generators.reduction_five_leaves.s": setup_s("generators.reduction_five_leaves"),
    }


# --- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import corpus
    import phylocontract as pc
    from phylocontract import cli

    if args.workload not in corpus.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    import_s = time.perf_counter() - _T0
    tracer = Tracer(enabled=bool(args.trace))
    work = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    try:
        return measure(args, corpus, pc, cli, tracer, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, corpus, pc, cli, tracer, work, import_s) -> int:
    setup_times, digests = [], set()
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        start = time.perf_counter()
        instances, digest = build_corpus(corpus, tracer, args, work)
        setup_times.append(time.perf_counter() - start)
        digests.add(digest)
    setup_s = import_s + statistics.median(setup_times)
    problems = []
    if len(digests) != 1:
        problems.append("corpus differs between set-ups of one seed")
    want = expected_digest(args.workload)
    if args.seed == DEFAULT_SEED and not args.tiny and want != digest:
        problems.append(f"corpus digest {digest} != stored {want}")
    if args.wrong_reference:
        k = next(i for i, inst in enumerate(instances) if inst.delta is not None)
        instances[k] = replace(instances[k], delta=instances[k].delta + 2)

    order = spread_order(instances)
    tracer.phase = "op"
    durations, failures = [], Counter()
    wrong = 0
    deadline = time.perf_counter() + args.seconds
    while not durations or time.perf_counter() < deadline:
        inst = instances[order[len(durations) % len(order)]]
        for name in ("emit.nwk", "witness.json"):
            (work / name).unlink(missing_ok=True)
        limit = sys.getrecursionlimit()
        tracer.op = len(durations)
        with tracer.span("op"):
            with tracer.span("cli.main"):
                seconds, rc, out, err, error = run_op(cli.main, argv_for(inst, work))
            if args.trace and error is None:
                replay(pc, tracer, inst, work)
        if sys.getrecursionlimit() != limit:
            error = error or "RecursionLimitChanged"
            sys.setrecursionlimit(limit)
        if error is None:
            error = check(inst, rc, out, err, work, pc.parse_enewick)
            wrong += error is not None and error.startswith("WrongAnswer")
        if error is not None:
            failures[error] += 1
        durations.append(math.inf if error else seconds)

    attempted = len(durations)
    failed = sum(failures.values())
    done = [d for d in durations if math.isfinite(d)]
    ranked = sorted(durations)
    q, tail_s = tail(ranked)
    e2e = {
        "pairs_per_s": (len(done) / sum(done) if done else 0.0, "1/s"),
        "op_s_p50": (finite(statistics.median(ranked)), "s"),
        "op_s_tail": (finite(tail_s), "s"),
        "fail_share": (failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={attempted} failed={failed} failures={dict(failures)} "
        f"op_s_tail=p{q:g} over {attempted} samples corpus={len(instances)} "
        f"setups={len(setup_times)} import_s={import_s:.4f} "
        f"digest={digest}"
    )
    for p in problems:
        print(f"INCORRECT: {p}")
    print("  ".join(f"{k}={v} {unit}" for k, (v, unit) in e2e.items()))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = layer_metrics(tracer, attempted, len(setup_times))
        tracer.dump(
            HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "ops": attempted, "metrics": values},
        )
        wanted = spec["per_layer"]
    else:
        values = {k: v for k, (v, _) in e2e.items()}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not problems and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
