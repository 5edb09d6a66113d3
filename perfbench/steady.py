"""Steadiness command: repeated runs of every workload, with their spread.

Usage, from the repository root::

    python3 perfbench/steady.py --reps 10                  # one set of runs
    python3 perfbench/steady.py --smoke                    # seconds-scale check
    python3 perfbench/steady.py --compare a.jsonl b.jsonl  # do two sets agree?

Repetition ``r`` (from 0) runs every workload once with ``--seed <r + 1>``
and ``--seconds`` set to ``run_seconds`` of ``BENCHMARK.json``, each in its
own untraced ``perfbench/run.py`` process, rotating the workload order
from one repetition to the next so no workload always runs first.  Each
result line is appended to ``--out`` (JSON lines).  For every workload and
metric the command prints the median, the quartiles and the spread — the
distance between the quartiles as a share of the median — next to the
metric's bound from ``BENCHMARK.json``.  A spread above a third of its bound
is flagged: the bounds were set from this output.

``--compare`` reads two such files and reports, per workload and metric,
whether the second set's median is worse than the first's by more than the
bound, and whether the share of failed operations is the same.

``--smoke`` runs one repetition at the minimum size (one set-up, the
minimum number of rounds) with the same checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("adhoc", "monitor", "low_motion")


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, setups: int | None) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    if setups is not None:
        command += ["--setups", str(setups)]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {completed.returncode}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=elapsed)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def read(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def summarize(rows: list[dict], bench: dict) -> bool:
    """Print median / quartiles / spread per workload and metric; True if steady."""
    steady = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in WORKLOADS:
        mine = [row for row in rows if row["workload"] == workload]
        if not mine:
            continue
        failed = sum(row["failed"] for row in mine)
        attempted = sum(row["attempted"] for row in mine)
        incorrect = [row["seed"] for row in mine if not row["correct"]]
        print(f"\n{workload}: {len(mine)} runs, {failed}/{attempted} operations failed, "
              f"incorrect seeds {incorrect or 'none'}, run wall "
              f"{min(r['wall_s'] for r in mine):.0f}-{max(r['wall_s'] for r in mine):.0f} s")
        steady = steady and not incorrect
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in mine[0]["metrics"]:
            values = [row["metrics"][name]["value"] for row in mine]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound / 3.0:
                flag = "  <- above a third of the bound"
                steady = False
            print(f"  {name:40s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} "
                  f"{bound:6.2f}{flag}")
    return steady


def compare(first: list[dict], second: list[dict], bench: dict) -> bool:
    """Whether the second set agrees with the first within every bound."""
    agree = True
    for workload in WORKLOADS:
        a = [row for row in first if row["workload"] == workload]
        b = [row for row in second if row["workload"] == workload]
        if not a or not b:
            continue
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"\n{workload}: failed share {share_a:.6f} vs {share_b:.6f}"
              f"{'' if share_a == share_b else '  <- differs'}")
        agree = agree and share_a == share_b
        for metric in bench["end_to_end"]:
            name = metric["name"]
            median_a = statistics.median(r["metrics"][name]["value"] for r in a)
            median_b = statistics.median(r["metrics"][name]["value"] for r in b)
            change = (median_b - median_a) / abs(median_a)
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= metric["bound"]
            agree = agree and ok
            print(f"  {name:20s} {median_a:12.5g} -> {median_b:12.5g} "
                  f"({change:+7.2%}, bound {metric['bound']:.2f}){'' if ok else '  <- worse'}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition at the minimum size")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    bench = load_bench()

    if args.compare:
        return 0 if compare(read(args.compare[0]), read(args.compare[1]), bench) else 1

    seconds = bench["run_seconds"]
    setups = None
    reps = args.reps
    if args.smoke:
        seconds, setups, reps = 0, 1, 1
    out = args.out or ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for rep in range(reps):
        shift = rep % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            row = run_once(workload, rep + 1, seconds, setups)
            rows.append(row)
            with out.open("a") as handle:
                handle.write(json.dumps(row) + "\n")
            print(f"rep {rep} {workload}: correct={row['correct']} "
                  f"{row['failed']}/{row['attempted']} failed, {row['wall_s']:.1f} s",
                  flush=True)
    print(f"\nresults in {out}")
    return 0 if summarize(rows, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
