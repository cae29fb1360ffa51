"""The repo's benchmark: one workload, one seed, every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload text-v2 --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three in turn and reports their metrics as
``<workload>/<metric>``.  Workloads (see ``perfbench/README.md`` for why
each was chosen):

* ``text-v2`` - serial ``gpu_compress``/``gpu_decompress`` (lzss, V2) on text;
* ``mixed-auto`` - ``codec="auto"`` on two engine threads over a corpus
  that feeds every branch of the per-chunk dispatcher;
* ``gateway-stream`` - a localhost gateway pair, one pool worker.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs a fixed
traced pass and prints every per-layer metric.  Each metric goes on its
own line with its unit, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("text-v2", "mixed-auto", "gateway-stream")

#: name -> unit, for every end-to-end metric (BENCHMARK.json order).
END_TO_END = {"compress_MBps": "MB/s", "decompress_MBps": "MB/s",
              "salvage_MBps": "MB/s", "ratio": "ratio",
              "stream_MBps": "MB/s", "frame_p50_s": "s",
              "frame_tail_s": "s", "setup_s": "s", "peak_rss_MB": "MB",
              "success_rate": "ratio"}

COLD_STARTS = 6          # timed cold starts per run; one more warms caches
COLD_TIMEOUT = 30.0      # seconds, per cold start
HOST_REF_ROUNDS = 5      # reference-loop timings before and after the load


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def host_ref() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not the program's."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    return perf_counter() - t0


# ------------------------------------------------------------ setup

def _time_to_ok(cmd: list[str]) -> tuple[float, bool]:
    """Launch ``cmd``; seconds until it prints ``ok`` (or exits)."""
    t0 = perf_counter()
    ok = False
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                          cwd=ROOT, text=True) as proc:
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if sel.select(timeout=COLD_TIMEOUT):
                    ok = proc.stdout.readline().strip() == "ok"
            elapsed = perf_counter() - t0
            proc.communicate(timeout=COLD_TIMEOUT)
        except subprocess.TimeoutExpired:
            ok = False
        finally:
            if proc.poll() is None:  # timed out, or a SIGTERM unwound us
                proc.kill()
                proc.communicate()
    return elapsed, ok and proc.returncode == 0


def _cli_cold_start(small: str, work: str) -> tuple[float, bool]:
    """``culzss compress`` then ``culzss decompress``, each a fresh process."""
    clz, back = os.path.join(work, "small.clz"), os.path.join(work, "back.bin")
    total = 0.0
    for args in (["compress", small, clz], ["decompress", clz, back]):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "repro.cli", *args],
                              env=child_env(), cwd=ROOT, timeout=COLD_TIMEOUT,
                              stdout=subprocess.DEVNULL)
        total += perf_counter() - t0
        if proc.returncode != 0:
            return total, False
    with open(small, "rb") as a, open(back, "rb") as b:
        ok = a.read() == b.read()
    os.remove(back)
    return total, ok


def cold_starts(workload: str, small: str, work: str, n: int,
                warm: bool = False) -> tuple[list[float], int]:
    """Time ``n`` cold starts (after an untimed one when ``warm``, which
    fills bytecode caches); returns (seconds, failures)."""
    times, failed = [], 0
    for k in range(n + warm):
        if workload == "text-v2":
            elapsed, ok = _cli_cold_start(small, work)
        else:
            elapsed, ok = _time_to_ok([sys.executable,
                                       os.path.join(HERE, "coldstart.py"),
                                       workload, small])
        if not ok:
            failed += 1
            print(f"perfbench: FAILED cold start {k}", file=sys.stderr)
        if k or not warm:
            times.append(elapsed)
    return times, failed


# ------------------------------------------------------------ run

def run_load(cmd: list[str], timeout: float) -> None:
    """Run the load in a process group of its own.

    If it fails to finish (a timeout, or a SIGTERM unwinding this
    process), SIGTERM goes to the whole group: the load and the pool
    worker it forked.  multiprocessing's resource tracker ignores
    SIGTERM; it outlives them long enough to unlink their shared memory.
    """
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGTERM)
                proc.wait()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def run(workload: str, seed: int, seconds: int, trace: bool,
        work: str) -> dict:
    from inputs import make_inputs

    refs = [host_ref() for _ in range(HOST_REF_ROUNDS)]
    inputs = make_inputs(workload, seed)
    in_path = os.path.join(work, "inputs.pkl")
    with open(in_path, "wb") as fh:
        pickle.dump(inputs, fh)
    small = os.path.join(work, "small.bin")
    with open(small, "wb") as fh:
        fh.write(inputs["small"])

    # Cold starts come half before and half after the load, so setup_s
    # samples the host at both ends of the run.
    half = COLD_STARTS // 2
    starts, failed = ([], 0) if trace else cold_starts(workload, small, work,
                                                        half, warm=True)
    out_path = os.path.join(work, "load.json")
    run_load([sys.executable, os.path.join(HERE, "load.py"),
              "--inputs", in_path, "--seconds", str(seconds),
              "--trace", str(int(trace)), "--out", out_path],
             timeout=seconds + 90)
    with open(out_path) as fh:
        res = json.load(fh)
    if not trace:
        more, more_failed = cold_starts(workload, small, work,
                                        COLD_STARTS - half)
        starts += more
        failed += more_failed
    attempted = 0 if trace else COLD_STARTS + 1
    setup_s = statistics.median(starts) if starts else None
    refs += [host_ref() for _ in range(HOST_REF_ROUNDS)]
    res["attempted"] += attempted
    res["failed"] += failed
    res["setup_s"] = setup_s
    res["host.ref_s"] = statistics.median(refs)
    return res


def report(workload: str, res: dict, trace: bool) -> dict:
    """Print one line per metric; return the final JSON object."""
    from layers import PER_LAYER

    attempted, failed = res["attempted"], res["failed"]
    if trace:
        values = dict(res["layers"], **{"host.ref_s": res["host.ref_s"]})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        print(f"trace check: self + unattributed = "
              f"{res['layers']['trace.check_s']:.4f} s of "
              f"{res['layers']['trace.wall_s']:.4f} s traced wall")
    else:
        values = dict(res, success_rate=(attempted - failed) / attempted)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        line = f"{workload} {name} {m['value']:.6g} {m['unit']}"
        if name == "frame_tail_s":
            line += (f" (p{res['frame_tail_pct']:.1f} of "
                     f"{res['frame_samples']} frames)")
        print(line)
    if not trace:
        print(f"{workload} host.ref_s {res['host.ref_s']:.6g} s "
              "(host-drift diagnostic, not a metric)")
        total = sum(res.get("codec_chunks", {}).values())
        if total:
            print(f"{workload} chunk shares: " + ", ".join(
                f"{name} {100.0 * n / total:.1f}%"
                for name, n in res["codec_chunks"].items()))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def combine(results: dict) -> dict:
    """One JSON object for ``--workload all``: metrics as workload/name."""
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    # A SIGTERM unwinds like an error, so the running child is killed
    # and waited for, and the work directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    # Temporary files of the program's children stay inside the checkout.
    os.environ["TMPDIR"] = work
    results = {}
    try:
        for name in names:
            res = run(name, args.seed, args.seconds, bool(args.trace), work)
            results[name] = report(name, res, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    result = combine(results) if len(results) > 1 else results[names[0]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
