#!/usr/bin/env python3
"""Attribution self-test: plants a busy-wait of +20% in the benchmark's own
cc probe (never in the simulator) and checks that the benchmark notices it
in the right place.

    python3 simbench/selftest.py [--seconds 20] [--reps 3]

Runs dumbbell-zoo (end-to-end and traced) and fabric-churn (end-to-end) with
and without the plant, alternating which goes first, and passes when
  * dumbbell-zoo's sim_s_per_wall_s drops by more than its bound,
  * dumbbell-zoo's cc.ms rises by more than that bound, and at least 90%
    of the host time the plant adds lands in cc.ms rather than in
    cluster.rest_ms (everything outside cc),
  * fabric-churn's sim_s_per_wall_s stays within its bound (its policy is
    not reachable by the probe, so the plant never runs there).
Run it from the repository root.  Exits 1 when a check fails.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
PLANT = 0.2  # busy-wait as a share of each cc call's duration


def run(workload, seed, seconds, trace, plant):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--plant-cc", str(plant)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"selftest: {workload} reported failed runs")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bound = bound["sim_s_per_wall_s"]

    samples = {}  # (plant, key) -> values
    for rep in range(args.reps):
        order = (0.0, PLANT) if rep % 2 == 0 else (PLANT, 0.0)
        for plant in order:
            seed = 1000 + rep
            zoo = run("dumbbell-zoo", seed, args.seconds, 0, plant)
            zoo_layers = run("dumbbell-zoo", seed, args.seconds, 1, plant)
            fabric = run("fabric-churn", seed, args.seconds, 0, plant)
            for key, value in (("zoo", zoo["sim_s_per_wall_s"]),
                               ("cc.ms", zoo_layers["cc.ms"]),
                               ("rest", zoo_layers["cluster.rest_ms"]),
                               ("fabric", fabric["sim_s_per_wall_s"])):
                samples.setdefault((plant, key), []).append(value)
            print(f"rep {rep} plant {plant}: zoo {zoo['sim_s_per_wall_s']:.1f} "
                  f"sim_s/s, cc.ms {zoo_layers['cc.ms']:.1f}, rest "
                  f"{zoo_layers['cluster.rest_ms']:.1f} ms, fabric "
                  f"{fabric['sim_s_per_wall_s']:.2f} sim_s/s", flush=True)

    def median(plant, key):
        return statistics.median(samples[(plant, key)])

    def change(key):
        return median(PLANT, key) / median(0.0, key) - 1.0

    added_cc = median(PLANT, "cc.ms") - median(0.0, "cc.ms")
    added_rest = median(PLANT, "rest") - median(0.0, "rest")
    cc_share = added_cc / (added_cc + added_rest)

    print(f"bound on sim_s_per_wall_s: {bound:.0%}")
    checks = [
        ("dumbbell-zoo sim_s_per_wall_s drops past the bound",
         -change("zoo") > bound, change("zoo")),
        ("dumbbell-zoo cc.ms rises past the bound", change("cc.ms") > bound,
         change("cc.ms")),
        ("dumbbell-zoo's added host time lands in cc.ms (>= 90%)",
         cc_share >= 0.9, cc_share),
        ("fabric-churn sim_s_per_wall_s stays within the bound",
         abs(change("fabric")) <= bound, change("fabric")),
    ]
    ok = True
    for name, passed, delta in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {delta:+.1%}")
        ok &= passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
