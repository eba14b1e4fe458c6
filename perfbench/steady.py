#!/usr/bin/env python3
"""Steadiness runner: repeat every workload and report each metric's spread.

    python3 perfbench/steady.py [--seconds S] [--traced N]

Two sets, each running every workload of BENCHMARK.json 10 times with a
fresh seed per run (set s, run r: seed 1000 + 1000 s + r), alternating
the workload order from run to run. For every end-to-end metric it
prints each set's median, quartiles (statistics.quantiles, n=4) and
spread (q3 - q1) / median against the bound in BENCHMARK.json, and how
far the second set's median moved from the first's in the metric's bad
direction. Exit status 1 if any spread or move exceeds its bound. The
counted per-layer metrics of the first set get the same summary.
`--traced N` adds N traced runs per workload, summarises their span
metrics and reports the tracing overhead as
1 - traced throughput / untraced throughput.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTED = "# counted per-layer: "
RUNS = 10
SETS = 2
SEED0 = 1000


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=seconds + 900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed ({' '.join(cmd)}):\n{out.stdout}{out.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"incorrect run ({' '.join(cmd)}):\n{out.stdout}")
    got = {k: v["value"] for k, v in res["metrics"].items()}
    for line in lines:
        if line.startswith(COUNTED):
            got.update({k: v["value"] for k, v in
                        json.loads(line[len(COUNTED):]).items()})
    return got


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for s in range(SETS):
        values = {w: {} for w in workloads}
        for r in range(RUNS):
            order = workloads if r % 2 == 0 else workloads[::-1]
            for w in order:
                seed = SEED0 + 1000 * s + r
                got = run_once(w, seed, seconds, 0)
                for m, v in got.items():
                    values[w].setdefault(m, []).append(v)
                print(f"set {s} run {r} {w} seed {seed}: " + ", ".join(
                    f"{m}={got[m]:.6g}" for m in e2e), flush=True)
        sets.append(values)

    print(f"\n{'workload':10} {'metric':16} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} verdict")
    all_ok = True
    for w in workloads:
        for m, spec_m in e2e.items():
            bound = spec_m["bound"]
            meds = []
            for s, values in enumerate(sets):
                med, q1, q3, spread = stats(values[w][m])
                meds.append(med)
                ok = spread <= bound
                verdict = ("ok" if spread <= bound / 3
                           else "within bound" if ok else "TOO NOISY")
                all_ok = all_ok and ok
                print(f"{w:10} {m:16} {s:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:6.3f} {verdict}")
            lower = spec_m["better"] == "lower"
            drift = ((meds[1] - meds[0]) / meds[0] if lower
                     else (meds[0] - meds[1]) / meds[0])
            ok = drift <= bound
            all_ok = all_ok and ok
            print(f"{w:10} {m:16} second median worse by {drift:+.3f} "
                  f"(bound {bound}) {'ok' if ok else 'DRIFT'}")

    def summary(title, table):
        print(f"\n{title}")
        for w in workloads:
            for m, vals in table[w].items():
                if m in e2e or not any(vals):  # skip layers not exercised
                    continue
                med, q1, q3, _ = (stats(vals) if len(vals) > 2 else
                                  (statistics.median(vals), min(vals),
                                   max(vals), 0))
                print(f"{w:10} {m:30} {med:12.6g} {q1:12.6g} {q3:12.6g}")

    summary("counted per-layer metrics (median, q1, q3):", sets[0])
    if args.traced:
        traced = {w: {} for w in workloads}
        for r in range(args.traced):
            for w in workloads:
                got = run_once(w, SEED0 + 500 + r, seconds, 1)
                for m, v in got.items():
                    traced[w].setdefault(m, []).append(v)
        summary("traced per-layer metrics (median, q1, q3; min and max "
                "below 3 runs):", traced)
        print("\ntracing overhead (traced runs vs the untraced median):")
        for w in workloads:
            t = statistics.median(traced[w]["trace.throughput_mops"])
            u = statistics.median(sets[0][w]["throughput_mops"])
            print(f"{w:10} traced {t:.6g} Mops/s, untraced {u:.6g} Mops/s, "
                  f"overhead {1 - t / u:+.3%}")

    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
