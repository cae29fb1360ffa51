"""Which program calls the traced run times, and the per-layer metrics.

Each entry of :data:`CALL_SITES` names a span and the places its callers
look the function up.  A function imported into several modules is
wrapped in each of them; a method is wrapped on its class.  A site that
no longer exists is skipped and listed on stderr, so a refactor that
moves a function shows as a zero row, not a crash.

The layer -> metric -> workload map, with what each metric should move,
is in ``perfbench/README.md``.  ``_s`` metrics are self seconds summed
over the traced pass, except the four service rows, which are per-frame
medians of the whole call.  ``codecs.trial_waste_s`` is the whole time
of the losing encode of each ``auto`` trial pair; ``engine.wall_s`` is
the whole time of the engine calls and ``engine.busy_share`` their shard
time over ``workers x`` that wall time.
"""

from __future__ import annotations

import statistics
import sys

from tracer import Span, Tracer, attribute

CODEC_NAMES = ("store", "lz4s", "lzss", "lzss-huffman")

#: span name -> [(module, attribute)] call sites (module-level functions).
CALL_SITES = {
    "lzss.match": [("repro.lzss.encoder", "lag_best_matches"),
                   ("repro.lzss.encoder", "hash_chain_best_matches"),
                   ("repro.codecs.lz4s", "hash_chain_best_matches")],
    "lzss.parse": [("repro.lzss.encoder", "greedy_token_starts"),
                   ("repro.codecs.lzss_huffman", "greedy_token_starts"),
                   ("repro.codecs.lz4s", "greedy_token_starts")],
    "lzss.pack": [("repro.lzss.encoder", "pack_tokens"),
                  ("repro.codecs.lzss_huffman", "pack_tokens")],
    "lzss.tokenize": [("repro.core.v2", "encode_chunked"),
                      ("repro.codecs.lzss", "encode_chunked"),
                      ("repro.codecs.dispatch", "encode_chunked"),
                      ("repro.engine.parallel", "_encode_serial")],
    "lzss.decode": [("repro.core.api", "decode_chunked_with_stats"),
                    ("repro.core.api", "salvage_decode_chunked"),
                    ("repro.engine.parallel", "_decode_serial"),
                    ("repro.engine.parallel", "_salvage_serial")],
    "lzss.boundary": [("repro.lzss.decoder", "reachable_from"),
                      ("repro.codecs.lz4s", "reachable_from")],
    "container.pack": [("repro.core.api", "pack_container")],
    "container.unpack": [("repro.core.api", "unpack_container")],
    "codecs.probe": [("repro.codecs.dispatch", "choose_chunk_codec")],
    "codecs.dispatch": [("repro.core.api", "encode_chunked_auto"),
                        ("repro.engine.parallel", "_encode_auto_serial")],
    "codecs.decode": [("repro.core.api", "decode_chunked_multi"),
                      ("repro.core.api", "salvage_decode_chunked_multi"),
                      ("repro.engine.parallel", "_decode_multi_serial"),
                      ("repro.engine.parallel", "_salvage_multi_serial")],
    "ingress.encode": [("repro.service.pipeline", "encode_payload")],
    "egress.decode": [("repro.service.pipeline", "decode_payload")],
}

#: span name -> [(module, class, method)] call sites (methods).
METHOD_SITES = {
    "model.profile": [("repro.core.v2", "V2Compressor", "profile"),
                      ("repro.core.decompress", "GpuDecompressor", "profile")],
    "engine": [("repro.engine.parallel", "ParallelEngine", m)
               for m in ("encode_chunked", "encode_chunked_auto")],
}

CODEC_CLASSES = {"store": ("repro.codecs.store", "StoreCodec"),
                 "lz4s": ("repro.codecs.lz4s", "Lz4sCodec"),
                 "lzss": ("repro.codecs.lzss", "LzssCodec"),
                 "lzss-huffman": ("repro.codecs.lzss_huffman",
                                  "LzssHuffmanCodec")}

SERVICE_MEDIANS = {"ingress.encode_s": "ingress.encode",
                   "ingress.pool_s": "ingress.pool",
                   "transport.send_s": "transport.send",
                   "egress.decode_s": "egress.decode"}

SELF_METRICS = {"lzss.match_s": "lzss.match", "lzss.parse_s": "lzss.parse",
                "lzss.pack_s": "lzss.pack", "lzss.tokenize_s": "lzss.tokenize",
                "lzss.decode_s": "lzss.decode",
                "lzss.boundary_s": "lzss.boundary",
                "model.profile_s": "model.profile",
                "container.pack_s": "container.pack",
                "container.unpack_s": "container.unpack",
                "codecs.probe_s": "codecs.probe",
                "codecs.dispatch_s": "codecs.dispatch",
                "codecs.decode_s": "codecs.decode"}

#: Every per-layer metric name and its unit, in report order.
PER_LAYER = (
    [(m, "s") for m in list(SELF_METRICS)[:6]] + [("lzss.tokens", "count")]
    + [(m, "s") for m in list(SELF_METRICS)[6:]]
    + [(f"codecs.chunks.{c}", "count") for c in CODEC_NAMES]
    + [(f"codecs.encode_s.{c}", "s") for c in CODEC_NAMES]
    + [("codecs.trial_waste_s", "s"), ("codecs.trial_useful_ratio", "ratio"),
       ("engine.wall_s", "s"), ("engine.busy_share", "ratio")]
    + [(m, "s") for m in SERVICE_MEDIANS]
    + [("gateway.generator_lag_s", "s"), ("gateway.backlog_max", "count"),
       ("gateway.raw_frames", "count"),
       ("trace.unattributed_share", "ratio"), ("trace.overhead_share", "ratio"),
       ("host.ref_s", "s")])


def _tokens(result) -> dict:
    return {"tokens": int(result.stats.n_tokens)}


def _out_len(result) -> dict:
    return {"out": len(result)}


def install(tracer: Tracer) -> None:
    """Wrap every call site; report the ones this tree does not have."""
    import importlib

    for name, sites in CALL_SITES.items():
        for module, attr in sites:
            mod = importlib.import_module(module)
            tracer.wrap(mod, attr, name, result_attrs=(
                _tokens if name == "lzss.tokenize" else None))
    for name, sites in METHOD_SITES.items():
        for module, cls, meth in sites:
            owner = getattr(importlib.import_module(module), cls)
            tracer.wrap(owner, meth, name, engine=name == "engine")
    for codec, (module, cls) in CODEC_CLASSES.items():
        owner = getattr(importlib.import_module(module), cls)
        tracer.wrap(owner, "encode_run", f"codecs.encode.{codec}")
        tracer.wrap(owner, "encode_chunk", f"codecs.encode.{codec}",
                    result_attrs=_out_len)

    from concurrent.futures import ProcessPoolExecutor

    import repro.service.gateway as gateway
    import repro.service.pipeline as pipeline

    tracer.wrap(gateway, "write_frame", "transport.send")

    class TimedPool(ProcessPoolExecutor):
        """The client's compression pool, timing submit -> result."""

        def submit(self, fn, /, *args, **kwargs):
            from time import perf_counter

            t0 = perf_counter()
            fut = super().submit(fn, *args, **kwargs)
            fut.add_done_callback(lambda _f: tracer.add(
                "ingress.pool", t0, perf_counter(), wait=True))
            return fut

    tracer.replace(pipeline, "ProcessPoolExecutor", TimedPool)
    if tracer.missing:
        print("perfbench: call sites not found (reported as 0): "
              + ", ".join(tracer.missing), file=sys.stderr)


def _trial_pairs(spans: list[Span]) -> list[tuple[Span, Span]]:
    """The (lzss, lzss-huffman) encode_chunk pairs of ``auto`` trials.

    A trial encode is an ``encode_chunk`` span whose parent is the
    dispatcher itself (a codec's own ``encode_run`` may call
    ``encode_chunk`` too; those are not trials).
    """
    dispatch = {s.sid for s in spans if s.name == "codecs.dispatch"}
    trials = sorted((s for s in spans if s.parent in dispatch
                     and s.name in ("codecs.encode.lzss",
                                    "codecs.encode.lzss-huffman")
                     and "out" in s.attrs),
                    key=lambda s: (s.thread, s.start))
    pairs = []
    for a, b in zip(trials[::2], trials[1::2]):
        if (a.name, b.name) == ("codecs.encode.lzss",
                                "codecs.encode.lzss-huffman"):
            pairs.append((a, b))
    return pairs


def per_layer(spans: list[Span], lo: float, hi: float, *,
              engine_workers: int = 1) -> dict[str, float]:
    """Per-layer metrics over the traced region ``[lo, hi)``.

    Also returns ``trace.check_s`` (self seconds + unattributed seconds)
    and ``trace.wall_s`` (wall x processes) for the attribution check.
    """
    inside = [s for s in spans if s.start >= lo and s.end <= hi]
    self_s, idle = attribute(inside, lo, hi)
    by_name: dict[str, float] = {}
    for s in inside:
        if s.sid in self_s:
            by_name[s.name] = by_name.get(s.name, 0.0) + self_s[s.sid]
    # Rows the caller fills in, or that this workload never reaches, read 0.
    out: dict[str, float] = {name: 0 for name, _unit in PER_LAYER}
    for metric, name in SELF_METRICS.items():
        out[metric] = by_name.get(name, 0.0)
    out["lzss.tokens"] = sum(s.attrs.get("tokens", 0) for s in inside)
    for c in CODEC_NAMES:
        out[f"codecs.encode_s.{c}"] = by_name.get(f"codecs.encode.{c}", 0.0)

    pairs = _trial_pairs(inside)
    waste = 0.0
    for lz, huff in pairs:
        # The dispatcher keeps lzss-huffman only when strictly smaller.
        waste += lz.duration if huff.attrs["out"] < lz.attrs["out"] \
            else huff.duration
    out["codecs.trial_waste_s"] = waste
    out["codecs.trial_useful_ratio"] = (len(pairs) / (2 * len(pairs))
                                        if pairs else 0.0)

    engine = [s for s in inside if s.name == "engine"]
    engine_ids = {s.sid for s in engine}
    wall = sum(s.duration for s in engine if s.parent not in engine_ids)
    shards = sum(s.duration for s in inside if s.parent in engine_ids
                 and s.name != "engine")
    out["engine.wall_s"] = wall
    out["engine.busy_share"] = (shards / (engine_workers * wall)
                                if wall > 0 else 0.0)

    for metric, name in SERVICE_MEDIANS.items():
        durations = [s.duration for s in inside if s.name == name]
        out[metric] = statistics.median(durations) if durations else 0.0

    n_proc = max(1, len(idle))
    unattributed = sum(idle.values())
    out["trace.unattributed_share"] = unattributed / (n_proc * (hi - lo))
    # The check recomputes idle time on its own, as wall time outside
    # every work span, so a self-time bug cannot cancel out.
    out["trace.check_s"] = (sum(self_s.values()) + n_proc * (hi - lo)
                            - _covered(inside, self_s))
    out["trace.wall_s"] = n_proc * (hi - lo)
    return out


def _covered(spans: list[Span], work_ids) -> float:
    """Seconds inside at least one work span, summed over processes."""
    total = 0.0
    by_pid: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.sid in work_ids:
            by_pid.setdefault(s.pid, []).append((s.start, s.end))
    for intervals in by_pid.values():
        end = float("-inf")
        for a, b in sorted(intervals):
            if b > end:
                total += b - max(a, end)
                end = b
    return total
