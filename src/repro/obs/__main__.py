"""``python -m repro.obs`` — dump or summarize observability artifacts.

Three subcommands:

- ``snapshot [-o FILE]`` — the current process's :func:`repro.obs.snapshot`
  as JSON (from a bench or service embedding, call
  :func:`repro.obs.write_snapshot` instead and post-process with the
  commands below).
- ``prometheus [SNAPSHOT.json]`` — exposition-format text, either from a
  saved snapshot file's ``metrics`` section or from the live process
  registry when no file is given.
- ``summarize TRACE.jsonl [--max-traces N]`` — indented span trees with
  durations from a bounded JSONL trace sink (``REPRO_OBS_TRACE`` or
  :func:`repro.obs.set_trace_file`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import export


def _cmd_snapshot(args) -> int:
    payload = export.snapshot()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"[repro.obs] snapshot -> {args.output}")
    else:
        print(text)
    return 0


def _cmd_prometheus(args) -> int:
    if args.snapshot:
        with open(args.snapshot) as fh:
            payload = json.load(fh)
        metrics = payload.get("metrics")
        if metrics is None:
            print(f"[repro.obs] {args.snapshot} has no 'metrics' section", file=sys.stderr)
            return 2
        sys.stdout.write(export.render_metrics_text(metrics))
    else:
        sys.stdout.write(export.render_prometheus())
    return 0


def _cmd_summarize(args) -> int:
    records = []
    with open(args.trace) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        print(f"[repro.obs] no spans in {args.trace}")
        return 0
    sys.stdout.write(export.summarize_trace(records, max_traces=args.max_traces))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_snap = sub.add_parser("snapshot", help="dump the current process snapshot as JSON")
    p_snap.add_argument("-o", "--output", help="write to a file instead of stdout")
    p_snap.set_defaults(fn=_cmd_snapshot)

    p_prom = sub.add_parser("prometheus", help="render Prometheus text format")
    p_prom.add_argument(
        "snapshot", nargs="?", help="a saved snapshot JSON (default: the live registry)"
    )
    p_prom.set_defaults(fn=_cmd_prometheus)

    p_sum = sub.add_parser("summarize", help="render span trees from a JSONL trace sink")
    p_sum.add_argument("trace", help="path to a JSONL trace file")
    p_sum.add_argument("--max-traces", type=int, default=None, help="truncate after N traces")
    p_sum.set_defaults(fn=_cmd_summarize)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess-free main()
    raise SystemExit(main())
