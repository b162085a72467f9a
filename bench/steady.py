"""Steadiness of the end-to-end metrics: run workloads repeatedly and report
each metric's median, quartiles and spread against its bound.

    python3 bench/steady.py --label A --workload fit
    python3 bench/steady.py --label A            # every workload
    python3 bench/steady.py --compare A B        # both sets, and the median shift

A set is RUNS runs per workload; run k uses seed first_seed + k.  The spread
is (q3 - q1) / median, with the quartiles of ``statistics.quantiles(values,
n=4)``; a set is steady when every spread is within its metric's bound, and
two sets agree when no median got worse by more than the bound and the share
of failed operations is the same.  Values are kept in
.bench_out/steady-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}
RUNS = 10


def run_set(label, names, first_seed):
    path = OUT / f"steady-{label}.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        records = []
        for k in range(RUNS):
            seed = first_seed + k
            start = time.monotonic()
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                                   "--trace", "0"], cwd=str(ROOT), capture_output=True, timeout=900)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
            result = json.loads(proc.stdout.decode().splitlines()[-1])
            records.append({"seed": seed, "wall_s": wall, **result})
            print(f"{name} seed {seed}: {wall:.1f} s, failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        store[name] = records
        OUT.mkdir(exist_ok=True)
        path.write_text(json.dumps(store, indent=1) + "\n")
    return store


def summarize(label, store):
    print(f"set {label}")
    for name, records in store.items():
        shares = {r["failed"] / r["attempted"] for r in records}
        walls = [r["wall_s"] for r in records]
        print(f"  {name}: {len(records)} runs, failed share {sorted(shares)}, "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        for metric, (bound, _) in BOUNDS.items():
            values = [r["metrics"][metric]["value"] for r in records]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= bound else "TOO WIDE"
            print(f"    {metric:14s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f} / bound {bound} = {spread / bound:.2f}  {verdict}")


def compare(label_a, label_b):
    sets = [json.loads((OUT / f"steady-{label}.json").read_text()) for label in (label_a, label_b)]
    for label, store in zip((label_a, label_b), sets):
        summarize(label, store)
    print(f"median of {label_b} against {label_a}")
    for name in sets[0]:
        if name not in sets[1]:
            continue
        a, b = sets[0][name], sets[1][name]
        shares = [{r["failed"] / r["attempted"] for r in s} for s in (a, b)]
        print(f"  {name}: failed shares {sorted(shares[0])} / {sorted(shares[1])}"
              f"{'' if shares[0] == shares[1] else '  DIFFER'}")
        for metric, (bound, better) in BOUNDS.items():
            med = [statistics.median(r["metrics"][metric]["value"] for r in s) for s in (a, b)]
            change = (med[1] - med[0]) / med[0]
            worse = change if better == "lower" else -change
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            print(f"    {metric:14s} {med[0]:.6g} -> {med[1]:.6g}  {change:+.3f} "
                  f"(worse by {worse:+.3f}, bound {bound})  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all in BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.label:
        parser.error("--label is required to run a set")
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    store = run_set(args.label, names, args.first_seed)
    summarize(args.label, {name: store[name] for name in names})


if __name__ == "__main__":
    main()
