"""One cold start: a fresh interpreter up to a first verified operation.

``python perfbench/coldstart.py {mixed-auto,gateway-stream} INPUT``

Prints ``ok`` once the operation on INPUT is verified; ``run.py`` times
the process from launch to that line, then lets it shut down.  The
text-v2 cold start needs no script: it runs ``python -m repro.cli
compress`` and ``decompress`` on a file.
"""

from __future__ import annotations

import asyncio
import sys


def mixed_auto(data: bytes) -> bool:
    from repro import gpu_compress, gpu_decompress
    from repro.engine import ParallelEngine

    # Same configuration as the load: two engine threads, 16 KiB shards.
    with ParallelEngine(2, min_parallel_bytes=len(data) // 2) as engine:
        blob = gpu_compress(data, codec="auto", engine=engine).data
        return gpu_decompress(blob, workers=1).data == data


async def gateway_stream(data: bytes) -> bool:
    from repro.service import GatewayClient, GatewayServer

    got = []

    async def deliver(_sid, _seq, frame):
        got.append(frame)

    server = GatewayServer(workers=0, deliver=deliver)
    await server.start()
    client = GatewayClient(port=server.port, version=2, workers=1,
                           codec="lzss")
    try:
        ack = await client.send_stream([data])
        ok = ack.matches([data]) and got == [data]
        print("ok" if ok else "mismatch", flush=True)
    finally:
        await client.close()
        await server.close()
    return ok


def main(argv: list[str]) -> int:
    workload, path = argv
    with open(path, "rb") as fh:
        data = fh.read()
    if workload == "mixed-auto":
        ok = mixed_auto(data)
        print("ok" if ok else "mismatch", flush=True)
    else:
        ok = asyncio.run(gateway_stream(data))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
