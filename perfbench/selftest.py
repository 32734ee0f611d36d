"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
each metric BENCHMARK.json names is printed with its unit; that a corrupted
reference is counted as a failed operation; that operations raising an
exception are tallied without ending the run; that the default seed's
corpus matches its stored digest; and that the harness refuses to run
without the package sources.
"""

from __future__ import annotations

import ast
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SUMMARY_UNITS = {
    "pairs_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "fail_share": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def run(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0"]
    argv += ["--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc, label: str) -> tuple[dict, dict[str, str], dict]:
    """(result JSON, summary metrics {name: unit}, failure tally)."""
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    expect(
        set(res) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result keys {sorted(res)}",
    )
    expect(res["attempted"] >= 1, f"{label}: nothing attempted")
    summary = dict(re.findall(r"(\w+)=\S+ (\S+)", lines[-2]))
    info = next(line for line in lines if line.startswith("workload="))
    tally = ast.literal_eval(re.search(r"failures=(\{.*?\})", info).group(1))
    return res, summary, tally


def check_metrics(res: dict, wanted: list[dict], label: str) -> None:
    names = [m["name"] for m in wanted]
    expect(list(res["metrics"]) == names, f"{label}: metrics {list(res['metrics'])}")
    for m in wanted:
        got = res["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
        value = got["value"]
        expect(
            isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
            f"{label}: {m['name']} value {value!r}",
        )


# Workloads the harness runs that BENCHMARK.json does not list (see README.md).
UNLISTED = ("deep_trees", "wide_trees")


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads + list(UNLISTED):
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{workload} trace={trace}"
            res, summary, _ = result(run(workload, "--tiny", trace=trace), label)
            expect(res["correct"] and res["failed"] == 0, f"{label}: {res}")
            check_metrics(res, wanted, label)
            expect(summary == SUMMARY_UNITS, f"{label}: summary {summary}")
        print(f"ok   {workload}: every metric printed with its unit")

    res, _, tally = result(run("wgt_pairs", "--tiny", "--wrong-reference"), "wrong reference")
    expect(res["failed"] >= 1 and not res["correct"], f"wrong reference passed: {res}")
    expect(set(tally) == {"WrongAnswer:delta"}, f"wrong reference tally {tally}")
    print(f"ok   a wrong reference fails {res['failed']} of {res['attempted']} operations")

    res, _, tally = result(run("deep_ceiling", "--tiny"), "deep_ceiling")
    expect(sum(tally.values()) == res["failed"], f"deep_ceiling tally {tally} vs {res}")
    expect(res["correct"], f"deep_ceiling gave a wrong answer: {tally}")
    print(f"ok   deep_ceiling: run completed, failures tallied {tally}")

    for workload in workloads + list(UNLISTED):
        res, _, _ = result(run(workload), f"{workload} full corpus")
        expect(res["correct"], f"{workload}: default-seed corpus digest or answers wrong")
    print("ok   default-seed corpora match their stored digests")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = run(workloads[0], "--tiny", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "ran without the package sources")
    expect('"metrics"' not in proc.stdout, "printed a result without the package sources")
    print("ok   refuses to run without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
