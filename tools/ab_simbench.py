#!/usr/bin/env python3
"""Interleaved A/B of simbench between two source trees.

    tools/ab_simbench.py PARENT_TREE CHANGE_TREE --workloads W [W ...]
        [--pairs N] [--seconds S] [--seed K] [--build-root DIR] [--trace]

Each tree's simbench/run.py builds into its own CARGO_TARGET_DIR under
--build-root, named "parent" and "change": names of equal length,
because peak_rss_mb moves with the length of the scratch path a run
uses. Both trees first pass `run.py --self-check`, which also builds
them, so no timed run waits for a build.

Per workload, N pairs run back to back, alternating which side goes
first. For each end-to-end metric in the change tree's BENCHMARK.json
the script prints both sides' medians and quartiles, the ratio of the
medians (change / parent), in how many pairs the change was better,
and the verdict: "gain" or "LOSS" when the median moved by more than
the metric's bound (a fraction of the parent's median), and whether
that move also exceeds the parent's interquartile range. Failed ops
are summed per side over every run.

--trace runs one traced run (--trace 1) per side and workload instead
and prints every per-layer metric side by side; "=" marks a value equal
on both sides, as every deterministic count must be when a change
claims identical outputs.

Exit status: 1 when a run fails, reports failed ops, or a metric reads
LOSS; else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_simbench(tree, target, args):
    """One run.py invocation; its result JSON, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "simbench", "run.py")] + args
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        print(f"ab_simbench: {' '.join(cmd)} exited {done.returncode}",
              file=sys.stderr)
        return None
    if "--self-check" in args:
        return {}
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(metric, parent, change):
    """'gain', 'LOSS' or '-' for the move of the median against the
    metric's bound, plus whether it exceeds the parent's IQR."""
    base = statistics.median(parent)
    moved = statistics.median(change) - base
    if metric["better"] == "lower":
        moved = -moved
    q1, q3 = quartiles(parent)
    beyond_iqr = abs(moved) > q3 - q1
    if base == 0:
        return "-", beyond_iqr
    if moved / base > metric["bound"]:
        return "gain", beyond_iqr
    if -moved / base > metric["bound"]:
        return "LOSS", beyond_iqr
    return "-", beyond_iqr


def ab_workload(trees, targets, workload, opts, metrics):
    """Run the pairs of one workload and print its table; True when
    every run succeeded with 0 failed ops and no metric reads LOSS."""
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", "0"]
    for pair in range(opts.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_simbench(trees[side], targets[side], args)
            if result is None:
                return False
            failed[side] += result["failed"]
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
        print(f"  {workload} pair {pair + 1}/{opts.pairs} done",
              file=sys.stderr)

    ok = failed["parent"] == 0 and failed["change"] == 0
    print(f"\n{workload}: {opts.pairs} pairs of {opts.seconds:g} s, "
          f"seed {opts.seed}")
    print(f"{'metric':<18} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'ratio':>7} {'better':>7} "
          f"{'bound':>6}  verdict")
    for m in metrics:
        parent = values["parent"][m["name"]]
        change = values["change"][m["name"]]
        wins = sum((c > p) if m["better"] == "higher" else (c < p)
                   for p, c in zip(parent, change))
        cells = []
        for side_values in (parent, change):
            q1, q3 = quartiles(side_values)
            cells.append(f"{statistics.median(side_values):.4g} "
                         f"[{q1:.4g}, {q3:.4g}]")
        base = statistics.median(parent)
        ratio = statistics.median(change) / base if base else float("nan")
        word, beyond_iqr = verdict(m, parent, change)
        if word == "LOSS":
            ok = False
        note = word + (", beyond parent IQR" if beyond_iqr else "")
        print(f"{m['name']:<18} {cells[0]:<32} {cells[1]:<32} "
              f"{ratio:>6.3f}x {wins:>3}/{len(parent):<3} "
              f"{m['bound']:>6g}  {note}")
    print(f"failed ops: parent {failed['parent']}, "
          f"change {failed['change']}")
    return ok


def trace_workload(trees, targets, workload, opts):
    """One traced run per side; per-layer metrics side by side."""
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", "1"]
    results = {}
    for side in SIDES:
        results[side] = run_simbench(trees[side], targets[side], args)
        if results[side] is None:
            return False
    print(f"\n{workload}: traced, {opts.seconds:g} s, seed {opts.seed}")
    print(f"{'metric':<28} {'parent':>14} {'change':>14}  unit")
    parent = results["parent"]["metrics"]
    change = results["change"]["metrics"]
    for name, metric in parent.items():
        other = change.get(name, {}).get("value")
        mark = "=" if other == metric["value"] else " "
        shown = "-" if other is None else f"{other:.6g}"
        print(f"{name:<28} {metric['value']:>14.6g} {shown:>14} {mark} "
              f"{metric['unit']}")
    for side in SIDES:
        print(f"failed ops: {side} {results[side]['failed']}")
    return all(results[side]["failed"] == 0 for side in SIDES)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--build-root", default=os.path.join(
        os.getcwd(), ".bench_build", "ab"))
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args()

    trees = {"parent": os.path.abspath(opts.parent_tree),
             "change": os.path.abspath(opts.change_tree)}
    targets = {side: os.path.join(os.path.abspath(opts.build_root), side)
               for side in SIDES}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    for side in SIDES:
        print(f"ab_simbench: building and self-checking {side} "
              f"({trees[side]})", file=sys.stderr)
        if run_simbench(trees[side], targets[side], ["--self-check"]) \
                is None:
            return 1
    ok = True
    for workload in opts.workloads:
        if opts.trace:
            ok &= trace_workload(trees, targets, workload, opts)
        else:
            ok &= ab_workload(trees, targets, workload, opts, metrics)
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
