"""``python -m repro.service`` — run the certification daemon.

    python -m repro.service --socket /tmp/repro.sock --store certs/ --k 2
    python -m repro.service --port 7341 --store certs/ --byte-budget 512MiB

Prints ``SERVICE_READY <address>`` once listening (wrappers wait for
that line) and ``SERVICE_METRICS <json>`` as the final act of a
graceful shutdown (SIGTERM, SIGINT, or a ``shutdown`` request).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.service.daemon import Daemon
from repro.service.service import CertificationService, ServiceConfig

_SIZE_SUFFIXES = {
    "kib": 1024,
    "mib": 1024**2,
    "gib": 1024**3,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
}


def parse_bytes(text: str) -> int:
    """Parse ``123``, ``512MiB``, ``2GB`` ... into a byte count."""
    lowered = text.strip().lower()
    for suffix, factor in _SIZE_SUFFIXES.items():
        if lowered.endswith(suffix):
            return int(float(lowered[: -len(suffix)]) * factor)
    return int(lowered)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Local-certification daemon: certify / reverify / "
        "audit over a sharded certificate store, JSON lines over a "
        "socket.",
    )
    endpoint = parser.add_mutually_exclusive_group(required=True)
    endpoint.add_argument(
        "--socket", metavar="PATH", help="serve on a unix socket"
    )
    endpoint.add_argument(
        "--port", type=int, metavar="PORT", help="serve on TCP (0 = ephemeral)"
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default: loopback)"
    )
    parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="certificate store root (created if absent)",
    )
    parser.add_argument(
        "--k", type=int, default=2,
        help="default pathwidth bound for certify requests (default: 2)",
    )
    parser.add_argument(
        "--exact-limit", type=int, default=None, metavar="N",
        help="exact-decomposition cutoff override (see DecomposeStage)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="blocking worker threads (default: 2)",
    )
    parser.add_argument(
        "--engine", default="serial", metavar="KIND",
        help="verification executor kind: serial or vectorized"
        " (default: serial)",
    )
    parser.add_argument(
        "--byte-budget", type=parse_bytes, default=None, metavar="BYTES",
        help="store size cap with LRU eviction (e.g. 512MiB; default: none)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="max seconds to wait for in-flight requests on shutdown",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = ServiceConfig(
        store_root=args.store,
        k=args.k,
        exact_limit=args.exact_limit,
        worker_threads=args.workers,
        engine=args.engine,
        byte_budget=args.byte_budget,
        drain_timeout=args.drain_timeout,
    )
    service = CertificationService(config)
    daemon = Daemon(
        service,
        host=args.host,
        port=args.port,
        socket_path=args.socket,
    )
    try:
        asyncio.run(daemon.run(ready_line=True))
    except KeyboardInterrupt:
        pass  # the signal handler already drained; double-^C lands here
    return 0


if __name__ == "__main__":
    sys.exit(main())
