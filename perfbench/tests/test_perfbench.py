"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They check that inputs follow the seed, that mixed-auto feeds every
dispatcher branch, that a smoke-size run prints every metric with its
unit, and that traced self times add up to traced wall time.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import load  # noqa: E402
from inputs import CHUNK, MIXED_BRANCH, MIXED_LAYOUT, make_inputs  # noqa: E402
from tracer import Span, attribute  # noqa: E402


def few_frames(workload: str, seed: int, n: int = 2) -> dict:
    inputs = make_inputs(workload, seed)
    inputs["frames"] = inputs["frames"][:n]
    inputs["damage"] = inputs["damage"][:n]
    return inputs


def traced(workload: str, seed: int, tmp_path) -> dict:
    inputs = few_frames(workload, seed, n=6 if workload == "gateway-stream"
                        else 2)
    if workload == "gateway-stream":
        return asyncio.run(load.run_gateway(inputs, 2, True, str(tmp_path)))
    return load.run_library(inputs, 1, True, str(tmp_path))


# ------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", ["text-v2", "mixed-auto",
                                      "gateway-stream"])
def test_same_seed_same_inputs(workload):
    a, b = make_inputs(workload, 5), make_inputs(workload, 5)
    assert a == b
    assert make_inputs(workload, 6)["frames"] != a["frames"]
    assert all(len(f) == 32 * 1024 for f in a["frames"])


@pytest.mark.parametrize("seed", [1, 2])
def test_mixed_auto_feeds_every_dispatcher_branch(seed):
    from repro.codecs.dispatch import choose_chunk_codec

    frames = make_inputs("mixed-auto", seed)["frames"]
    seen, as_built, total = set(), 0, 0
    for frame in frames:
        arr = np.frombuffer(frame, dtype=np.uint8)
        for c, (kind, _n) in enumerate(MIXED_LAYOUT):
            branch = choose_chunk_codec(arr[c * CHUNK:(c + 1) * CHUNK])
            seen.add(branch)
            as_built += branch == MIXED_BRANCH[kind]
            total += 1
    assert seen == {"store", "lz4s", "lzss", "trial"}
    # The dispatcher decides from content; a few draws land elsewhere.
    assert as_built >= 0.9 * total


@pytest.mark.parametrize("workload", ["text-v2", "mixed-auto"])
def test_same_seed_same_ratio(workload):
    ratios = []
    for _ in range(2):
        lib = load.LibraryLoad(few_frames(workload, 3), load.Tally())
        for i in range(2):
            lib.frame(i)
        ratios.append(lib.figures()["ratio"])
        assert lib.tally.failed == 0
        if lib.engine is not None:
            lib.engine.close()
    assert ratios[0] == ratios[1]


def test_gateway_frames_mix_kinds_with_a_fixed_raw_share():
    from repro.service import FLAG_RAW, encode_payload

    frames = make_inputs("gateway-stream", 2)["frames"][:8]
    raw = [bool(encode_payload(f, 2)[0] & FLAG_RAW) for f in frames]
    assert raw == [False] * 7 + [True]


# ------------------------------------------------------------ figures

def test_tail_is_the_nearest_rank_percentile():
    assert load.tail([float(v) for v in range(1, 101)]) == (80.0, 80)
    assert load.tail([3.0, 1.0, 2.0]) == (3.0, 80)


def test_call_rates_report_the_median_verified_call():
    tally = load.Tally()
    rates = load.CallRates(tally)
    for secs in (1.0, 2.0, 100.0):  # one call stalled by the host
        rates.add(1_000_000, secs)
    rates.time("raises", 1, lambda: 1 / 0)
    rates.time("wrong bytes", 1, lambda: False)
    assert rates.mbps() == 0.5
    assert (tally.attempted, tally.failed) == (2, 2)


# ------------------------------------------------------------ tracing

def test_self_time_splits_concurrent_spans():
    # A root (0-10) with a child (2-6) on the same thread and a shard
    # (4-8) on another thread that also belongs to the root.
    spans = [Span("root", 0, 10, 1, 0, 7, 1),
             Span("child", 2, 6, 2, 1, 7, 1),
             Span("shard", 4, 8, 3, 1, 7, 2),
             Span("queue", 1, 9, 4, 0, 7, 3, wait=True)]
    self_s, idle = attribute(spans, 0, 12)
    assert self_s[2] == pytest.approx(2 + 1)      # alone 2-4, half of 4-6
    assert self_s[3] == pytest.approx(1 + 2)      # half of 4-6, alone 6-8
    assert self_s[1] == pytest.approx(2 + 2)      # 0-2 and 8-10
    assert idle[7] == pytest.approx(2)            # 10-12
    assert 4 not in self_s                         # waits get no self time


@pytest.mark.parametrize("workload", ["text-v2", "mixed-auto",
                                      "gateway-stream"])
def test_traced_self_times_add_up_to_wall(workload, tmp_path):
    res = traced(workload, 1, tmp_path)
    lay = res["layers"]
    assert res["failed"] == 0
    assert abs(lay["trace.check_s"] - lay["trace.wall_s"]) \
        <= 0.1 * lay["trace.wall_s"]
    assert lay["lzss.tokens"] > 0
    if workload == "mixed-auto":
        assert lay["codecs.probe_s"] > 0 and lay["engine.wall_s"] > 0
        assert lay["codecs.chunks.store"] > 0
    if workload == "gateway-stream":
        # Worker spans came home: the encode ran in the pool process.
        assert lay["ingress.encode_s"] > 0 and lay["lzss.match_s"] > 0


@pytest.mark.parametrize("workload", ["text-v2", "mixed-auto"])
def test_counts_repeat_for_one_seed(workload, tmp_path):
    keys = ["lzss.tokens"] + [f"codecs.chunks.{c}" for c in layers.CODEC_NAMES]
    first = traced(workload, 4, tmp_path / "a")["layers"]
    second = traced(workload, 4, tmp_path / "b")["layers"]
    assert [first[k] for k in keys] == [second[k] for k in keys]


# ------------------------------------------------------------ run.py

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_smoke_run_prints_every_end_to_end_metric():
    proc = _run(["--workload", "text-v2", "--seed", "1", "--seconds", "1",
                 "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert len(spec["end_to_end"]) == 10
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(f"text-v2 {metric['name']} ")
                   and line.split()[3] == metric["unit"] for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == dict(layers.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "text-v2", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
