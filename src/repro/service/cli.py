"""``repro-serve``: the serving stack's one entry point.

Starts the asyncio wire transport on a TCP address and serves until
interrupted (Ctrl-C / SIGINT drains in-flight jobs, then exits 0)::

    repro-serve --listen 127.0.0.1:7000              # 4-chip pool
    repro-serve --listen :7000 --fleet 2             # 2 worker processes
    repro-serve --listen :7000 --tenants tenants.txt # auth + quotas

A remote :class:`~repro.service.client.FheClient` drives it. The first
line printed is ``repro-serve: listening on HOST:PORT (...)``, so a
caller that asked for port 0 can read the bound port from it.
``examples/encrypted_service_demo.py`` is the end-to-end demo.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math

from repro.service.server import FheServer, TenantQuota
from repro.service.transport import FheTransportServer


def load_tenants(path: str) -> tuple[dict[str, str], dict]:
    """Parse a ``--tenants`` file into (auth table, quota table).

    One tenant per line, whitespace-separated::

        tenant token [max_inflight] [rate] [burst]

    Blank lines and ``#`` comments are skipped. The optional numeric
    columns configure the tenant's admission quota (0 disables each);
    ``burst`` defaults to ``ceil(rate)`` when a rate is given. A
    malformed line, or a quota :class:`TenantQuota` rejects (a negative
    count, a negative or non-finite rate), exits with ``path:line:``.
    """
    tenants: dict[str, str] = {}
    quotas: dict[str, TenantQuota] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 2 or len(fields) > 5:
                raise SystemExit(
                    f"{path}:{lineno}: want 'tenant token "
                    f"[max_inflight] [rate] [burst]', got {raw.strip()!r}"
                )
            tenant, token = fields[0], fields[1]
            if tenant in tenants:
                raise SystemExit(f"{path}:{lineno}: duplicate tenant {tenant!r}")
            tenants[tenant] = token
            try:
                max_inflight = int(fields[2]) if len(fields) > 2 else 0
                rate = float(fields[3]) if len(fields) > 3 else 0.0
                burst = (int(fields[4]) if len(fields) > 4
                         else math.ceil(rate))
                if max_inflight or rate or burst:
                    quotas[tenant] = TenantQuota(
                        max_inflight=max_inflight, rate=rate, burst=burst
                    )
            except (ValueError, OverflowError) as exc:
                raise SystemExit(f"{path}:{lineno}: {exc}")
    return tenants, quotas


def serve(listen: str, pool_size: int,
          stats_interval: float = 0.0, fleet: int = 0,
          max_inflight: int = 0, tenants_file: str | None = None) -> int:
    """Run the asyncio wire transport until interrupted."""
    host, _, port_text = listen.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"--listen wants [HOST:]PORT, got {listen!r}")
    tenants = quotas = None
    if tenants_file is not None:
        tenants, quotas = load_tenants(tenants_file)

    async def _stats_logger(server):
        # One structured-log line per interval: JSON so a log pipeline
        # can ingest it without scraping the Prometheus endpoint.
        while True:
            await asyncio.sleep(stats_interval)
            snap = await server.stats_snapshot()
            print(json.dumps({"repro_stats": snap}, sort_keys=True),
                  flush=True)

    async def _serve():
        fhe = FheServer(pool_size=pool_size, fleet_size=fleet, quotas=quotas)
        server = FheTransportServer(
            fhe, host=host, port=port, max_inflight=max_inflight,
            tenants=tenants,
        )
        bound_host, bound_port = await server.start()
        engine = (
            f"fleet x{fleet} (process workers)" if fleet > 0
            else f"chip pool x{pool_size}"
        )
        auth = (
            f", auth for {len(tenants)} tenant(s)" if tenants is not None
            else ""
        )
        print(f"repro-serve: listening on {bound_host}:{bound_port} "
              f"({engine}{auth}, Ctrl-C to stop)", flush=True)
        logger_task = (
            asyncio.ensure_future(_stats_logger(server))
            if stats_interval > 0 else None
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if logger_task is not None:
                logger_task.cancel()
            print("repro-serve: draining in-flight jobs…")
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="CoFHEE serving layer: the wire-transport listener.",
    )
    parser.add_argument(
        "--listen", metavar="[HOST:]PORT", required=True,
        help="TCP address to serve on (port 0 picks a free one)",
    )
    parser.add_argument("--pool", type=int, default=4, metavar="N",
                        help="chips in the pool backend (default 4)")
    parser.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="serve from a fleet of N worker processes instead of the "
             "in-process chip pool (0 disables)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=0, metavar="N",
        help="per-connection submit window; floods stall instead of "
             "queueing unboundedly (0 disables)",
    )
    parser.add_argument(
        "--stats-interval", type=float, default=0.0, metavar="N",
        help="print a JSON metrics snapshot every N seconds (0 disables)",
    )
    parser.add_argument(
        "--tenants", metavar="FILE",
        help="per-tenant auth + quota table (lines of "
             "'tenant token [max_inflight] [rate] [burst]'); enables "
             "token-checked OPEN_SESSION and quota admission",
    )
    args = parser.parse_args(argv)
    return serve(args.listen, args.pool,
                 stats_interval=args.stats_interval, fleet=args.fleet,
                 max_inflight=args.max_inflight, tenants_file=args.tenants)


if __name__ == "__main__":
    raise SystemExit(main())
