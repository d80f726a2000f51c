"""``python -m repro.serve`` — run or drive the job server.

Subcommands::

    serve      start a server (foreground) and print its address
    submit     submit one job to a running server and print the result
    metrics    fetch a running server's Prometheus snapshot
    shutdown   stop a running server (graceful by default)

The ``serve --chaos INDEX:MODE`` flag arms the scheduler's
fault-injection hook (``repro.scheduler.worker._TEST_WORKER_CHAOS``) —
the CI ``serve-smoke`` job uses it to kill a worker mid-run and assert
the sweep still finishes bit-identical to a serial run.  Modes:
exit, exit-after, raise, hang, corrupt.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.compile_cache import CACHE_ENV_VAR, cache_dir_setting
from repro.obs import render_prometheus

from .client import JobRejected, ServeClient
from .jobs import JOB_KINDS
from .server import JobServer, ServerConfig


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve", help="start a job server (foreground)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks an ephemeral port (printed on stdout)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--timeout", type=float, default=None,
                   help="per task attempt, seconds")
    p.add_argument("--retries", type=int, default=1)
    p.add_argument("--recycle-tasks", type=int, default=None,
                   help="retire a worker after N tasks")
    p.add_argument("--recycle-rss-mb", type=float, default=None,
                   help="retire a worker above M MiB resident")
    p.add_argument("--queue-limit", type=int, default=256)
    p.add_argument("--when-full", choices=("reject", "block"),
                   default="reject")
    p.add_argument("--client-quota", type=int, default=128,
                   help="max in-flight tasks per connection (0 = unlimited)")
    p.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV_VAR),
                   help="disk compile cache shared by all workers "
                        "(default: the REPRO_COMPILE_CACHE env var; 'off' "
                        "disables even that)")
    p.add_argument("--trace-file", default=None,
                   help="write the server Chrome trace here at shutdown")
    p.add_argument("--prom-file", default=None,
                   help="write the final Prometheus snapshot here at shutdown")
    p.add_argument("--ready-file", default=None,
                   help="write 'host port' here once listening")
    p.add_argument("--chaos", action="append", default=[],
                   metavar="INDEX:MODE",
                   help="inject a worker fault on a task index (repeatable)")


def _add_client_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.chaos:
        from repro.scheduler import CHAOS_MODES
        from repro.scheduler import worker as scheduler_worker
        for spec in args.chaos:
            index, _, mode = spec.partition(":")
            if mode not in CHAOS_MODES:
                print(f"--chaos: unknown mode {mode!r} "
                      f"(expected {CHAOS_MODES})", file=sys.stderr)
                return 2
            scheduler_worker._TEST_WORKER_CHAOS[int(index)] = mode
    try:
        config = ServerConfig(
            host=args.host, port=args.port, workers=args.workers,
            timeout=args.timeout, retries=args.retries,
            recycle_tasks=args.recycle_tasks,
            recycle_rss_bytes=(int(args.recycle_rss_mb * 1024 * 1024)
                               if args.recycle_rss_mb else None),
            queue_limit=args.queue_limit, when_full=args.when_full,
            client_quota=args.client_quota or None,
            cache_dir=cache_dir_setting(args.cache_dir),
            trace_file=args.trace_file,
            prom_file=args.prom_file)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    server = JobServer(config)

    async def main() -> None:
        ready = asyncio.Event()

        async def announce() -> None:
            await ready.wait()
            host, port = server.address
            print(f"listening on {host}:{port}", flush=True)
            if args.ready_file:
                with open(args.ready_file, "w") as handle:
                    handle.write(f"{host} {port}\n")

        task = asyncio.ensure_future(announce())
        try:
            await server.run(ready=ready)
        finally:
            task.cancel()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    params = json.loads(args.params) if args.params else {}
    with ServeClient(args.host, args.port) as client:
        try:
            done = client.run_job(args.kind, params, metrics=args.metrics,
                                  stream=args.stream,
                                  on_task=(lambda e: print(
                                      json.dumps(e), file=sys.stderr))
                                  if args.stream else None)
        except JobRejected as exc:
            print(json.dumps({"rejected": exc.code, "error": str(exc)}),
                  file=sys.stderr)
            return 1
    text = json.dumps(done, indent=None if args.compact else 2,
                      sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if done.get("ok") else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    with ServeClient(args.host, args.port) as client:
        snapshot = client.metrics()["snapshot"]
    if args.format == "prom":
        sys.stdout.write(render_prometheus(snapshot))
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    with ServeClient(args.host, args.port) as client:
        client.shutdown("now" if args.now else "graceful")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="compile-and-simulate job service")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_serve(sub)

    p = sub.add_parser("submit", help="submit one job and wait for it")
    _add_client_common(p)
    p.add_argument("--kind", required=True, choices=sorted(JOB_KINDS))
    p.add_argument("--params", default=None,
                   help="job params as a JSON object")
    p.add_argument("--metrics", action="store_true",
                   help="include the job's merged metrics snapshot")
    p.add_argument("--stream", action="store_true",
                   help="print per-task events to stderr as they land")
    p.add_argument("--out", default=None,
                   help="write the done event here instead of stdout")
    p.add_argument("--compact", action="store_true")

    p = sub.add_parser("metrics", help="fetch server metrics")
    _add_client_common(p)
    p.add_argument("--format", choices=("json", "prom"), default="prom")

    p = sub.add_parser("shutdown", help="stop a running server")
    _add_client_common(p)
    p.add_argument("--now", action="store_true",
                   help="cancel in-flight jobs instead of draining")

    args = parser.parse_args(argv)
    handler = {"serve": _cmd_serve, "submit": _cmd_submit,
               "metrics": _cmd_metrics, "shutdown": _cmd_shutdown}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
