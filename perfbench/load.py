"""The measured load, run in a process of its own.

``python perfbench/load.py --inputs FILE --seconds S --trace 0|1 --out FILE``

The process that runs the program never generates inputs, so its peak
resident memory is the program's.  It reads the frames ``run.py``
wrote, runs the workload for ``S`` seconds (untraced) or a fixed traced
pass (``--trace 1``), checks every output and writes its figures as
JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import pickle
import resource
import statistics
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import CHUNK, FRAME  # noqa: E402

#: Paced gateway phase: a fixed offered rate, about 40% of what one pool
#: worker sustains on these frames (~9 frames/s closed loop on a 2-core
#: host).  Nearer capacity, a slow stretch of the host queues frames and
#: the tail swings by half from run to run.  It stays fixed so a faster
#: codec shows as lower latency at the same load.
PACED_RATE = 3.5
#: Half of a 30 s run is paced: 5 streams of 10 frames, so the 80th
#: percentile of the 50 latencies is the highest with 10 frames beyond it.
PACED_SHARE = 0.5
TAIL_PCT = 80            # frame_tail_s percentile, nearest rank
CYCLES = 5               # gateway: codec pass, burst, paced stream, x5
CODEC_FRAMES = 10        # frames per codec pass (5 x 10 covers all 24 twice)
BURST_FRAMES = 8         # frames per closed-loop burst
DECODE_REPS = 4          # decodes per encode in the gateway codec pass
#: Strict decodes and salvages per encode in the library workloads: a
#: decode is 7-30x faster than the encode, and repeating it gives each
#: decode median hundreds of calls spread over the whole run.
LIBRARY_DECODE_REPS = {"text-v2": 3, "mixed-auto": 8}
#: client counters: input bytes, wire bytes, raw frames
RATIO_COUNTERS = ("ingress.bytes_in", "ingress.bytes_out",
                  "ingress.raw_frames")


class Tally:
    """Attempted/failed operations; failures are printed as they happen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the :data:`TAIL_PCT` percentile, nearest rank.

    On the gateway's 50 paced frames that is the highest percentile with
    10 frames beyond it.  The library workloads time 60-150 round trips,
    where that rule gives p83-p93: there the calls a host preemption hit
    (7-15% of them in bad stretches) decide the value, so they keep p80.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(TAIL_PCT / 100 * len(ordered)))
    return ordered[rank - 1], TAIL_PCT


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is KiB on Linux


# ------------------------------------------------------------ library

class Damage:
    """A container copy with one chunk's payload damaged, and what
    salvage must report for it."""

    def __init__(self, container: bytes, chunk: int, where: float) -> None:
        from repro.container import unpack_container

        info = unpack_container(container)
        lo, hi = (int(x) for x in info.chunk_ranges()[chunk])
        pos = info.payload_offset + lo + min(int(where * (hi - lo)), hi - lo - 1)
        blob = bytearray(container)
        blob[pos] ^= 0xFF
        self.container = container
        self.blob = bytes(blob)
        self.chunk = chunk
        self.n_chunks = int(info.chunk_sizes.size)
        self.lost = (chunk * CHUNK, min((chunk + 1) * CHUNK, info.original_size))

    def matches(self, original: bytes, result) -> bool:
        rep = result.salvage
        lo, hi = self.lost
        return (rep is not None and rep.lost == [self.chunk]
                and rep.recovered == [c for c in range(self.n_chunks)
                                      if c != self.chunk]
                and list(rep.lost_ranges) == [self.lost]
                and result.data[:lo] == original[:lo]
                and result.data[hi:] == original[hi:]
                and result.data[lo:hi] == bytes(hi - lo))


def library_calls(workload: str):
    """(compress kwargs, decompress kwargs, engine or None)."""
    from repro import CompressionParams

    params = CompressionParams(version=2)
    if workload == "text-v2":
        return dict(params=params, workers=1), dict(workers=1), None
    from repro.engine import ParallelEngine

    # Two engine threads; the shard threshold is lowered from its 128 KiB
    # default so each 32 KiB frame splits into two 4-chunk shards.  Decode
    # stays serial: its ~7 ms shards hand the interpreter lock back and
    # forth, and that made decode throughput swing by a third between runs.
    engine = ParallelEngine(2, min_parallel_bytes=FRAME // 2)
    return (dict(params=params, codec="auto", engine=engine),
            dict(workers=1), engine)


class CallRates:
    """Checked, timed calls of one kind; their MB/s is the median call's.

    A host preemption stalls a call by 30-100 ms or more: a 12 ms decode
    triples and a 0.12 s encode nearly doubles.  A ratio of summed
    seconds moved with how many calls preemptions happened to hit, and
    in a bad stretch (10-15% of calls hit) it fell by a third while the
    median call held.
    """

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.rates: list[float] = []

    def time(self, what: str, n_bytes: int, call) -> tuple[float, bool]:
        """Run ``call()`` (true when its output checks out); returns
        (seconds, ok).  A raise is a failure."""
        t0 = perf_counter()
        try:
            ok = bool(call())
        except Exception:
            ok = False
        secs = perf_counter() - t0
        if self.tally.check(ok, what):
            self.rates.append(n_bytes / 1e6 / secs)
        return secs, ok

    def add(self, n_bytes: int, secs: float) -> None:
        """A call timed by the caller, already checked."""
        self.rates.append(n_bytes / 1e6 / secs)

    def mbps(self) -> float:
        return statistics.median(self.rates) if self.rates else 0.0


class LibraryLoad:
    """compress -> (strict decode, salvage decode) x reps, frame by frame."""

    def __init__(self, inputs: dict, tally: Tally) -> None:
        self.frames = inputs["frames"]
        self.damage_plan = inputs["damage"]
        self.ckw, self.dkw, self.engine = library_calls(inputs["workload"])
        self.reps = LIBRARY_DECODE_REPS[inputs["workload"]]
        self.tally = tally
        self.damaged: dict[int, Damage] = {}
        self.reset()

    def reset(self) -> None:
        self.compress = CallRates(self.tally)
        self.strict = CallRates(self.tally)
        self.salvage = CallRates(self.tally)
        self.round_trips: list[float] = []
        self.container_bytes = 0
        self.input_bytes = 0
        self.codec_chunks: dict[int, int] = {}

    def frame(self, i: int) -> None:
        """Compress frame ``i`` once, then decode it strictly and salvage
        its damaged copy :data:`LIBRARY_DECODE_REPS` times each, in turn.

        """
        from repro import gpu_compress, gpu_decompress

        idx = i % len(self.frames)
        data = self.frames[idx]
        n = len(data)
        t0 = perf_counter()
        try:
            comp = gpu_compress(data, **self.ckw)
        except Exception as exc:  # a raise is a failed operation
            self.tally.check(False, f"compress frame {idx}: {exc!r}")
            return
        t1 = perf_counter()
        if i < len(self.frames):  # ratio and chunk counts: one pass
            self.container_bytes += len(comp.data)
            self.input_bytes += n
            if comp.result.chunk_codecs is not None:
                for cid in comp.result.chunk_codecs.tolist():
                    self.codec_chunks[cid] = self.codec_chunks.get(cid, 0) + 1

        dmg = self.damaged.get(idx)
        if dmg is None or dmg.container != comp.data:
            dmg = self.damaged[idx] = Damage(comp.data, *self.damage_plan[idx])
        for rep in range(self.reps):
            secs, ok = self.strict.time(
                f"round trip frame {idx}", n,
                lambda: gpu_decompress(comp.data, **self.dkw).data == data)
            if ok and not rep:  # the round trip: encode + first decode
                self.compress.add(n, t1 - t0)
                self.round_trips.append(t1 - t0 + secs)
            self.salvage.time(
                f"salvage frame {idx}", n,
                lambda: dmg.matches(data, gpu_decompress(
                    dmg.blob, errors="salvage", **self.dkw)))

    def chunk_counts(self) -> dict[str, int]:
        """Chunks per codec over one pass (the v3 codec column)."""
        from repro.codecs import get_codec

        from layers import CODEC_NAMES

        counts = dict.fromkeys(CODEC_NAMES, 0)
        for cid, n in self.codec_chunks.items():
            counts[get_codec(cid).name] += n
        return counts

    def figures(self) -> dict:
        rt = self.round_trips or [0.0]  # 0.0: every round trip failed
        tail_s, tail_pct = tail(rt)
        p50 = statistics.median(rt)
        return {"compress_MBps": self.compress.mbps(),
                "decompress_MBps": self.strict.mbps(),
                "salvage_MBps": self.salvage.mbps(),
                "stream_MBps": FRAME / 1e6 / p50 if p50 else 0.0,
                "frame_p50_s": p50, "frame_tail_s": tail_s,
                "frame_tail_pct": tail_pct, "frame_samples": len(rt),
                "ratio": self.container_bytes / self.input_bytes}


def run_library(inputs: dict, seconds: float, trace: bool,
                spill_dir: str) -> dict:
    tally = Tally()
    load = LibraryLoad(inputs, tally)
    load.frame(0)  # warm-up: lazy imports, engine threads
    load.reset()
    out: dict = {}
    if not trace:
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds:
            load.frame(i)
            i += 1
        out.update(load.figures())
        out["codec_chunks"] = load.chunk_counts()
    else:
        from layers import install, per_layer
        from tracer import Tracer

        n = len(inputs["frames"])  # one pass over the distinct frames
        t0 = perf_counter()
        for i in range(n):
            load.frame(i)
        untraced = perf_counter() - t0
        load.reset()
        tracer = Tracer()
        install(tracer)
        try:
            lo = perf_counter()
            for i in range(n):
                load.frame(i)
            hi = perf_counter()
        finally:
            tracer.restore()
        workers = load.engine.workers if load.engine is not None else 1
        out["layers"] = per_layer(tracer.spans, lo, hi, engine_workers=workers)
        out["layers"]["trace.overhead_share"] = (hi - lo) / untraced - 1.0
        out["layers"].update({f"codecs.chunks.{c}": n
                              for c, n in load.chunk_counts().items()})
    if load.engine is not None:
        load.engine.close()
    out["attempted"], out["failed"] = tally.attempted, tally.failed
    return out


# ------------------------------------------------------------ gateway

class Receiver:
    """The server's ``deliver`` callback: checks bytes and order."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.expected: dict[int, list[bytes]] = {}
        self.next_seq: dict[int, int] = {}
        self.delivered_at: dict[int, dict[int, float]] = {}
        self.sid = 0  # last stream id handed out

    def expect(self, stream_id: int, frames: list[bytes]) -> None:
        self.expected[stream_id] = frames
        self.next_seq[stream_id] = 0
        self.delivered_at[stream_id] = {}

    async def __call__(self, stream_id: int, seq: int, data: bytes) -> None:
        now = perf_counter()
        want = self.next_seq.get(stream_id)
        frames = self.expected.get(stream_id, [])
        ok = seq == want and seq < len(frames) and data == frames[seq]
        if self.tally.check(ok, f"gateway stream {stream_id} seq {seq}"):
            self.delivered_at[stream_id][seq] = now
        self.next_seq[stream_id] = seq + 1

    def missing(self, stream_id: int) -> int:
        return len(self.expected[stream_id]) - len(self.delivered_at[stream_id])


class CodecPass:
    """compress/decompress/salvage through the service's frame codec.

    Each encode is followed by :data:`DECODE_REPS` strict decodes and
    salvages, timed as :class:`CallRates`.
    """

    def __init__(self, inputs: dict, tally: Tally) -> None:
        self.frames, self.plan = inputs["frames"], inputs["damage"]
        self.tally = tally
        self.next = 0
        self.compress = CallRates(tally)
        self.strict = CallRates(tally)
        self.salvage = CallRates(tally)

    def run(self, n_frames: int) -> None:
        from repro import gpu_decompress
        from repro.service import FLAG_RAW, decode_payload, encode_payload

        for _ in range(n_frames):
            idx = self.next % len(self.frames)
            self.next += 1
            data = self.frames[idx]
            t0 = perf_counter()
            flags, payload = encode_payload(data, 2)
            secs = perf_counter() - t0
            if flags & FLAG_RAW:  # checked, not timed: nothing was encoded
                self.tally.check(decode_payload(flags, payload) == data,
                                 f"service codec raw frame {idx}")
                continue
            dmg = Damage(payload, *self.plan[idx])
            for rep in range(DECODE_REPS):
                _secs, ok = self.strict.time(
                    f"service codec frame {idx}", len(data),
                    lambda: decode_payload(flags, payload) == data)
                if ok and not rep:
                    self.compress.add(len(data), secs)
                self.salvage.time(
                    f"service salvage frame {idx}", len(data),
                    lambda: dmg.matches(data, gpu_decompress(
                        dmg.blob, errors="salvage")))

    def figures(self) -> dict:
        return {"compress_MBps": self.compress.mbps(),
                "decompress_MBps": self.strict.mbps(),
                "salvage_MBps": self.salvage.mbps()}


async def _paced(frames: list[bytes], rate: float, dues: list, lags: list):
    """Open loop: frame i is due at start + i / rate, however late the
    program runs."""
    start = perf_counter()
    for i, data in enumerate(frames):
        due = start + i / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        dues.append(due)
        lags.append(perf_counter() - due)
        yield data


class GatewayLoad:
    """Closed-loop bursts and open-loop paced streams over one connection."""

    def __init__(self, inputs: dict, tally: Tally, port: int,
                 receiver: Receiver) -> None:
        from repro.service import GatewayClient

        self.frames = inputs["frames"]
        self.tally = tally
        self.receiver = receiver
        self.client = GatewayClient(port=port, version=2, workers=1,
                                    codec="lzss")
        self.next = 0
        self.burst_rates: list[float] = []
        self.latency: list[float] = []
        self.lags: list[float] = []
        self.backlog = 0

    def _take(self, n: int) -> list[bytes]:
        out = [self.frames[(self.next + i) % len(self.frames)]
               for i in range(n)]
        self.next += n
        return out

    async def stream(self, buffers, verify_frames=None):
        """Send one stream; returns (seconds to verified ACK, id, ok)."""
        self.receiver.sid += 1
        sid = self.receiver.sid
        self.receiver.expect(sid, verify_frames or buffers)
        t0 = perf_counter()
        try:
            ack = await self.client.send_stream(buffers, stream_id=sid)
            ok = verify_frames is None or ack.matches(verify_frames)
        except Exception as exc:
            print(f"perfbench: stream {sid} raised {exc!r}", file=sys.stderr)
            ok = False
        elapsed = perf_counter() - t0
        self.tally.check(ok, f"gateway ACK for stream {sid}")
        missing = self.receiver.missing(sid)
        self.tally.attempted += missing
        self.tally.failed += missing
        return elapsed, sid, ok and not missing

    async def burst(self, n: int) -> float:
        frames = self._take(n)
        elapsed, _sid, ok = await self.stream(frames)
        if ok:
            self.burst_rates.append(sum(map(len, frames)) / 1e6 / elapsed)
        return elapsed

    async def paced(self, n: int) -> None:
        frames = self._take(n)
        dues: list[float] = []
        _, sid, _ = await self.stream(
            _paced(frames, PACED_RATE, dues, self.lags), verify_frames=frames)
        delivered = self.receiver.delivered_at[sid]
        self.latency += [delivered[i] - due for i, due in enumerate(dues)
                         if i in delivered]
        self.backlog = max(self.backlog, _backlog_max(dues, delivered))

    def figures(self) -> dict:
        tail_s, tail_pct = tail(self.latency)
        return {"stream_MBps": statistics.median(self.burst_rates),
                "frame_p50_s": statistics.median(self.latency),
                "frame_tail_s": tail_s, "frame_tail_pct": tail_pct,
                "frame_samples": len(self.latency)}


async def run_gateway(inputs: dict, seconds: float, trace: bool,
                      spill_dir: str) -> dict:
    """``CYCLES`` x (codec pass, burst, paced stream), so every metric
    samples the whole run; a traced run does one burst and one paced
    stream."""
    from repro.service import GatewayServer

    loop = asyncio.get_running_loop()
    loop.set_default_executor(
        ThreadPoolExecutor(max_workers=os.cpu_count() or 1))
    tally = Tally()
    n_paced = max(1, int(PACED_RATE * seconds * PACED_SHARE / CYCLES))
    receiver = Receiver(tally)
    server = GatewayServer(workers=0, deliver=receiver)
    await server.start()
    out: dict = {}
    tracer = None
    try:
        if trace:
            gw = GatewayLoad(inputs, tally, server.port, receiver)
            await gw.stream([inputs["small"]])  # warm-up: pool spawn
            untraced = await gw.burst(BURST_FRAMES)
            await gw.client.close()
            from layers import install
            from tracer import Tracer

            tracer = Tracer(spill_dir=spill_dir)
            install(tracer)
        gw = GatewayLoad(inputs, tally, server.port, receiver)
        await gw.stream([inputs["small"]])  # warm-up: pool spawn
        codec = CodecPass(inputs, tally)
        m = gw.client.metrics
        before = [m.count(k) for k in RATIO_COUNTERS]
        lo = perf_counter()
        for _ in range(1 if trace else CYCLES):
            if not trace:
                codec.run(CODEC_FRAMES)
            traced_burst = await gw.burst(BURST_FRAMES)
            await gw.paced(n_paced)
        hi = perf_counter()
        moved = [m.count(k) - b for k, b in zip(RATIO_COUNTERS, before)]
        await gw.client.close()
    finally:
        if tracer is not None:
            tracer.restore()
        await server.close()
    out.update(gw.figures())
    out["ratio"] = moved[1] / moved[0]
    if trace:
        from layers import per_layer
        from tracer import load_spans

        # The worker spilled its spans when the client closed its pool.
        layers = per_layer(tracer.spans + load_spans(spill_dir), lo, hi)
        layers["trace.overhead_share"] = traced_burst / untraced - 1.0
        layers["gateway.generator_lag_s"] = max(gw.lags)
        layers["gateway.backlog_max"] = gw.backlog
        layers["gateway.raw_frames"] = moved[2]
        out["layers"] = layers
    else:
        out.update(codec.figures())
    out["attempted"], out["failed"] = tally.attempted, tally.failed
    return out


def _backlog_max(dues: list[float], delivered: dict[int, float]) -> int:
    """Most frames that were due but not yet delivered at one time."""
    events = [(t, 1) for t in dues]
    events += [(t, -1) for t in delivered.values()]
    events.sort()
    depth = most = 0
    for _, step in events:
        depth += step
        most = max(most, depth)
    return most


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.inputs, "rb") as fh:
        inputs = pickle.load(fh)
    spill = tempfile.mkdtemp(prefix="spans-", dir=os.path.dirname(args.out))
    if inputs["workload"] == "gateway-stream":
        res = asyncio.run(run_gateway(inputs, args.seconds, bool(args.trace),
                                      spill))
    else:
        res = run_library(inputs, args.seconds, bool(args.trace), spill)
    res["peak_rss_MB"] = peak_rss_mb()
    with open(args.out, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
