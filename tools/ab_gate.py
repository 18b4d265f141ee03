#!/usr/bin/env python3
"""Same-host A/B perf gate: the working tree against a base commit, on every
workload of the repository benchmark.

    python3 tools/ab_gate.py BASE_REF

Run it from anywhere inside the repository.  BASE_REF is exported with
`git archive` into a temporary directory outside the repository, which is
removed afterwards.  For each of PAIRS pairs and each workload in
BENCHMARK.json, `simbench/run.py --trace 0` runs once on the base and once on
the working tree, with the same seed; which side goes first alternates from
pair to pair.  Each side builds in its own CARGO_TARGET_DIR.

The gate fails (exit 1) when, on any workload, the change's median of an
end-to-end metric is worse than the base's median by more than that metric's
`bound` in BENCHMARK.json, when the change's mean ok_run_share is below the
base's, or when a run reports `correct: false`, lacks a metric, or fails.
It prints, for every workload and metric, both medians and the base's
interquartile range.
"""
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 6
SECONDS = 5
SEED0 = 1000


def median_and_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def verdict(end_to_end, base, change):
    """Compare parsed simbench results.

    end_to_end: BENCHMARK.json's "end_to_end" list ({"name", "better",
    "bound", ...}).  base, change: {workload: [result, ...]}, where a result
    is the JSON object simbench prints last, or None for a run that failed.
    Returns (report lines, failure lines); the gate passes when the second
    list is empty.
    """
    lines, failures = [], []
    for workload in base:
        runs = {"base": base[workload], "change": change.get(workload, [])}
        for side, results in runs.items():
            if not results:
                failures.append(f"{workload}: no {side} runs")
            for i, r in enumerate(results):
                if r is None:
                    failures.append(f"{workload}: {side} run {i} failed")
                elif r.get("correct") is not True:
                    failures.append(f"{workload}: {side} run {i} reports "
                                    "correct: false")
        for metric in end_to_end:
            name = metric["name"]
            values = {}
            for side, results in runs.items():
                ran = [r for r in results if r is not None]
                values[side] = [r["metrics"][name]["value"] for r in ran
                                if name in r["metrics"]]
                if len(values[side]) < len(ran):
                    failures.append(f"{workload}/{name}: missing from a "
                                    f"{side} run")
            if not values["base"] or not values["change"]:
                continue
            base_med, base_iqr = median_and_iqr(values["base"])
            change_med = statistics.median(values["change"])
            if base_med == 0.0:
                rel = 0.0 if change_med == 0.0 else float("inf")
            else:
                rel = change_med / base_med - 1.0
            worse = -rel if metric["better"] == "higher" else rel
            if worse > metric["bound"]:
                failures.append(f"{workload}/{name}: {base_med:.6g} -> "
                                f"{change_med:.6g} ({worse:+.1%} worse, "
                                f"bound {metric['bound']:.0%})")
            if name == "ok_run_share":
                base_mean = statistics.fmean(values["base"])
                change_mean = statistics.fmean(values["change"])
                if change_mean < base_mean:
                    failures.append(f"{workload}/{name}: mean dropped from "
                                    f"{base_mean:.6g} to {change_mean:.6g}")
            note = ""
            if base_med and base_iqr / abs(base_med) > metric["bound"]:
                note = "  unresolved: base spread exceeds the bound"
            lines.append(f"{workload:16s} {name:22s} base {base_med:12.6g} "
                         f"(IQR {base_iqr:.3g})  change {change_med:12.6g} "
                         f"({rel:+.1%}){note}")
    return lines, failures


def run_simbench(tree, build_dir, workload, seed):
    cmd = [sys.executable, "simbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def measure(sides, workloads):
    """Runs the pairs; stops at the first failed run, which fails the gate."""
    results = {side: {w: [] for w in workloads} for side in sides}
    for pair in range(PAIRS):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for w in workloads:
            for side in order:
                tree, build_dir = sides[side]
                r = run_simbench(tree, build_dir, w, SEED0 + pair)
                results[side][w].append(r)
                if r is None:
                    print(f"pair {pair} {w} {side}: run failed", flush=True)
                    return results
                speed = r["metrics"].get("sim_s_per_wall_s", {}).get(
                    "value", float("nan"))
                print(f"pair {pair} {w} {side}: {speed:.6g} sim_s/s",
                      flush=True)
    return results


def export(repo, commit, dest):
    """Writes the tree of `commit` into the new directory `dest`."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", commit],
                             stdout=subprocess.PIPE, check=True)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def git(*args):
    return subprocess.run(["git", *args], stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    base_ref = sys.argv[1]
    repo = pathlib.Path(git("rev-parse", "--show-toplevel"))
    commit = git("rev-parse", "--verify", "--quiet", base_ref + "^{commit}")
    if not commit:
        sys.exit(f"ab_gate: {base_ref} names no commit")
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="ab_gate_"))
    try:
        export(repo, commit, tmp / "base")
        sides = {"base": (tmp / "base", tmp / "build_base"),
                 "change": (repo, tmp / "build_change")}
        results = measure(sides, workloads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines, failures = verdict(bench["end_to_end"], results["base"],
                              results["change"])
    print(f"\nab_gate: {base_ref} vs working tree, {PAIRS} pairs, "
          f"--seconds {SECONDS}; medians, base interquartile range")
    print("\n".join(lines))
    for f in failures:
        print(f"ab_gate: FAIL: {f}", file=sys.stderr)
    print("ab_gate: " + ("FAIL" if failures else "PASS"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
