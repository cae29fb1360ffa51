"""Steadiness report: run workloads over several seeds, summarise.

    python3 perfbench/steady.py --seeds 1-10                 # every workload
    python3 perfbench/steady.py --workload text-v2 --seeds 1-5 --json a.json
    python3 perfbench/steady.py --compare a.json b.json      # two sets

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread
``(q3 - q1) / median`` and the full spread ``(max - min) / median``, and
flags a quartile spread above a third of the metric's bound in
``BENCHMARK.json``.  ``--json FILE`` also saves every run's values
(``FILE`` with ``_<workload>`` added when it runs several workloads), and
``--compare`` prints how far the second saved set's medians moved from
the first's, against each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"seed {seed}: {result['failed']} failed operations",
              file=sys.stderr)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:  # the host probe, printed beside the metrics
        parts = line.split()
        if len(parts) > 2 and parts[1] == "host.ref_s":
            values.setdefault("host.ref_s", float(parts[2]))
    return values


def summarise(runs: list[dict], bounds: dict) -> list[str]:
    lines = [f"{'metric':26} {'median':>11} {'q1':>11} {'q3':>11} "
             f"{'iqr/med':>8} {'range/med':>9}"]
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        flag = ""
        if name in bounds and name != "setup_s" and iqr > bounds[name] / 3:
            flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
        lines.append(f"{name:26} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                     f"{iqr:8.3f} {rng:9.3f}{flag}")
    return lines


def compare(first: dict, second: dict, bounds: dict,
            better: dict) -> list[str]:
    """Median shift between two saved sets of runs of one workload."""
    lines = [f"{'metric':26} {'median 1':>11} {'median 2':>11} "
             f"{'worse by':>9} {'bound':>6}"]
    for name in first["runs"][0]:
        m1 = statistics.median(r[name] for r in first["runs"])
        m2 = statistics.median(r[name] for r in second["runs"])
        worse = (m2 - m1) / m1 if better.get(name) == "lower" else \
            (m1 - m2) / m1
        flag = "  OVER" if name in bounds and worse > bounds[name] else ""
        lines.append(f"{name:26} {m1:11.5g} {m2:11.5g} {worse:9.3f} "
                     f"{bounds.get(name, float('nan')):6.2f}{flag}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="one workload, or 'all' (the default)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--json", default=None,
                    help="save every run's values (one workload)")
    ap.add_argument("--compare", nargs=2, metavar="JSON",
                    help="compare the medians of two saved sets; no runs")
    args = ap.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = {}
    if os.path.exists(spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as fh:
                sets.append(json.load(fh))
        better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
        print(f"{sets[0]['workload']}: set 1 = {args.compare[0]}, "
              f"set 2 = {args.compare[1]}")
        print("\n".join(compare(sets[0], sets[1], bounds, better)))
        return 0
    seconds = args.seconds or spec.get("run_seconds", 30)
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"{workload}: {len(runs)} runs of {seconds} s, "
              f"seeds {args.seeds}")
        print("\n".join(summarise(runs, bounds)), flush=True)
        if args.json:
            path = args.json if len(names) == 1 else \
                args.json.replace(".json", f"_{workload}.json")
            with open(path, "w") as fh:
                json.dump({"workload": workload, "seeds": args.seeds,
                           "seconds": seconds, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
