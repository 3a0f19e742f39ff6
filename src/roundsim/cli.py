"""Command-line harness: run one config, run a sweep file, or benchmark
thread counts. Exit codes: 0 success, 2 configuration problems, 1 other
failures."""

import argparse
import csv
import errno
import io
import os
import sys

from . import config as config_mod
from . import sweep as sweep_mod
from .engine import Engine
from .errors import ConfigError, RoundsimError
from .runlog import canonical_json, serialize


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before anything runs:
    a ConfigError naming the path, with the reason `open` would give. An
    empty path names no file, so it is refused under the option's name."""
    if not path:
        raise ConfigError("--out", "expected a file path, got ''")
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise ConfigError(path, os.strerror(code))


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _doc_to_csv(doc) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tag", "computation", "round", "node", "payload"])
    for tag in doc.tags():
        for rec in doc.records(tag):
            writer.writerow([tag, rec.computation, rec.round,
                             "" if rec.node is None else rec.node,
                             canonical_json(rec.payload)])
    return buf.getvalue()


def _bench_table(rows, fmt: str) -> str:
    if fmt == "json":
        return canonical_json({"rows": rows})
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["threads", "wallClockSeconds", "messages"])
    for row in rows:
        writer.writerow([row["threads"], "%.6g" % row["wallClockSeconds"],
                         row["messages"]])
    return buf.getvalue()


def _cmd_run(args) -> int:
    config = config_mod.load_file(args.config)
    if args.threads is not None:
        config = config.with_(worker_count=args.threads)
    doc = Engine(config).run()
    if args.format == "json":
        _emit(serialize(doc), args.out)
    else:
        _emit(_doc_to_csv(doc), args.out)
    return 0


def _cmd_sweep(args) -> int:
    sweep = sweep_mod.load_sweep_file(args.sweep)
    table = sweep_mod.run_sweep(sweep)
    text = table.to_json() if args.format == "json" else table.to_csv()
    _emit(text, args.out)
    return 0


def _cmd_bench(args) -> int:
    config = config_mod.load_file(args.config)
    try:
        counts = [int(part) for part in args.threads.split(",") if part]
    except ValueError:
        counts = []
    if not counts:
        raise ConfigError("threads", f"expected a comma list of integers, "
                                     f"got {args.threads!r}")
    rows = sweep_mod.benchmark_threads(config, counts)
    _emit(_bench_table(rows, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim", description="Round-based distributed algorithm simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one run config")
    run_p.add_argument("config", help="path to a run config JSON file")
    run_p.add_argument("--out", help="output path (default stdout)")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--threads", type=int,
                       help="override workerCount; execution is serial, so "
                            "no count changes the run or its log")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="execute a sweep file")
    sweep_p.add_argument("sweep", help="path to a sweep JSON file")
    sweep_p.add_argument("--out", help="output path (default stdout)")
    sweep_p.add_argument("--format", choices=("json", "csv"), default="json")
    sweep_p.set_defaults(func=_cmd_sweep)

    bench_help = ("time a config across workerCount values; execution is "
                  "serial, so no count changes the run")
    bench_p = sub.add_parser("bench", help=bench_help, description=bench_help)
    bench_p.add_argument("config", help="path to a run config JSON file")
    bench_p.add_argument("--threads", required=True,
                         help="comma-separated worker counts, e.g. 1,2,4")
    bench_p.add_argument("--out", help="output path (default stdout)")
    bench_p.add_argument("--format", choices=("json", "csv"), default="json")
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"sim: {exc}", file=sys.stderr)
        return 2
    except (RoundsimError, OSError) as exc:
        print(f"sim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
