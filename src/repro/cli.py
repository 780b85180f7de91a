"""The ``repro`` command line: query, diff, and inspect OEM/DOEM files.

Subcommands (``python -m repro <cmd> --help`` for details):

* ``validate FILE``            -- parse a textual OEM file and check it;
* ``show FILE``                -- pretty-print a textual OEM file;
* ``query FILE QUERY``         -- run a Lorel query over an OEM file;
* ``diff OLD NEW``             -- infer the change set between snapshots;
* ``htmldiff OLD NEW``         -- marked-up HTML diff (Figure 1);
* ``history STORE NAME``       -- show the encoded history of a stored
  DOEM database (from a change-log store);
* ``timeline STORE NAME NODE`` -- one object's full change history;
* ``chorel STORE NAME QUERY``  -- run a Chorel query over a stored DOEM
  database (native engine; ``--translate`` shows/uses the Lorel
  translation instead);
* ``explain QUERY``            -- EXPLAIN: compile a Chorel query without
  running it and print the optimized plan tree plus the pass-by-pass
  firing report; uses a built-in demo history unless ``--store``/``--db``
  point at a stored DOEM database;
* ``analyze QUERY``            -- EXPLAIN ANALYZE: execute the query and
  print the physical plan tree with per-operator runtime stats (rows
  in/out, batches, wall time, shard fan-out, vectorized/fallback
  predicate counts) and the compile / execute split; ``--json PATH``
  also writes the observation as JSON (dashboards, CI artifacts); same
  ``--store`` / ``--db`` / ``--backend`` selection as ``explain``;
* ``store init|demo|info|fsck|checkpoint|compact`` -- manage a durable
  change-log store (:mod:`repro.store`): create one, persist the demo
  history, describe it, verify/repair segment and checkpoint integrity,
  force a checkpoint, or compact a history's delta chain;
* ``serve-metrics``            -- expose the process metrics registry
  over HTTP (``/metrics`` Prometheus text, ``/metrics.json``,
  ``/queries`` fingerprint-keyed query-log aggregates, ``/health``);
* ``top``                      -- a live (or ``--once``) view of the
  metrics registry, local or scraped from a ``serve-metrics`` URL; the
  table view appends per-fingerprint query-log aggregates when this
  process has executed planner queries, and ``--store PATH`` adds a
  change-log store section (histories and recorded subscriptions).

``history``, ``timeline``, ``chorel``, and the ``--store`` flag of
``explain``/``analyze`` read a change-log store (a directory with a
``.doemstore`` marker), opened read-only through the process-shared
handle, so the tools observe the same live history a QSS server in this
process is serving.

The global ``--events PATH`` flag (or the ``REPRO_EVENTS`` environment
variable) turns on the structured JSONL event log for any subcommand.

Everything prints to stdout; exit code 0 on success, 1 on any
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .chorel import ChorelEngine, TranslatingChorelEngine
from .diff import html_diff, oem_diff
from .doem.extract import encoded_history
from .errors import ReproError
from .lorel import LorelEngine
from .oem.serialize import loads

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DOEM/Chorel tools: query, diff, and inspect "
                    "semistructured data and its changes.")
    parser.add_argument("--events", type=Path, default=None,
                        metavar="PATH",
                        help="append structured JSONL events here "
                             "('-' for stderr); REPRO_EVENTS also works")
    parser.add_argument("--events-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="minimum event level for --events "
                             "(default: info)")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="parse and check a textual OEM file")
    validate.add_argument("file", type=Path)

    show = commands.add_parser("show", help="pretty-print an OEM file")
    show.add_argument("file", type=Path)
    show.add_argument("--depth", type=int, default=6,
                      help="maximum rendering depth (default 6)")

    query = commands.add_parser(
        "query", help="run a Lorel query over an OEM file")
    query.add_argument("file", type=Path)
    query.add_argument("text", help="the Lorel query")
    query.add_argument("--name", default=None,
                       help="database name for root paths "
                            "(default: the root node id)")

    diff = commands.add_parser(
        "diff", help="infer the change set between two OEM snapshots")
    diff.add_argument("old", type=Path)
    diff.add_argument("new", type=Path)

    hdiff = commands.add_parser(
        "htmldiff", help="marked-up HTML diff of two HTML files (Fig. 1)")
    hdiff.add_argument("old", type=Path)
    hdiff.add_argument("new", type=Path)
    hdiff.add_argument("-o", "--output", type=Path, default=None,
                       help="write markup here instead of stdout")

    history = commands.add_parser(
        "history", help="show the encoded history H(D) of a stored DOEM db")
    history.add_argument("store", type=Path, help="change-log store directory")
    history.add_argument("name", help="stored DOEM database name")

    timeline = commands.add_parser(
        "timeline", help="show one object's full change history")
    timeline.add_argument("store", type=Path, help="change-log store directory")
    timeline.add_argument("name", help="stored DOEM database name")
    timeline.add_argument("node", help="object identifier")

    chorel = commands.add_parser(
        "chorel", help="run a Chorel query over a stored DOEM database")
    chorel.add_argument("store", type=Path, help="change-log store directory")
    chorel.add_argument("name", help="stored DOEM database name")
    chorel.add_argument("text", help="the Chorel query")
    chorel.add_argument("--db-name", default=None,
                        help="database name for root paths")
    chorel.add_argument("--translate", action="store_true",
                        help="use the Lorel-translation backend and print "
                             "the translated query first")

    for command, summary in (("explain", "compile a Chorel query and print "
                                         "EXPLAIN: the optimized plan tree "
                                         "and the passes that fired"),
                             ("analyze", "execute a Chorel query with "
                                         "EXPLAIN ANALYZE: the plan tree "
                                         "with per-operator runtime stats")):
        sub = commands.add_parser(command, help=summary)
        sub.add_argument("text", help="the Chorel query")
        sub.add_argument("--store", type=Path, default=None,
                         help="change-log store directory (default: a "
                              "built-in demo history)")
        sub.add_argument("--db", default=None,
                         help="stored DOEM database name (with --store)")
        sub.add_argument("--db-name", default=None,
                         help="database name for root paths")
        sub.add_argument("--backend",
                         choices=["indexed", "native", "translate"],
                         default="indexed",
                         help="engine to plan with (default: indexed)")
        if command == "analyze":
            sub.add_argument("--json", type=Path, default=None,
                             dest="json_path",
                             help="also write the JSON observation here")

    store = commands.add_parser(
        "store", help="manage a durable change-log store (repro.store)")
    store_cmds = store.add_subparsers(dest="store_command", required=True)

    s_init = store_cmds.add_parser(
        "init", help="create an empty change-log store")
    s_init.add_argument("path", type=Path)

    s_demo = store_cmds.add_parser(
        "demo", help="persist the built-in demo history into a store")
    s_demo.add_argument("path", type=Path)
    s_demo.add_argument("--name", default="demo",
                        help="history name (default: demo)")
    s_demo.add_argument("--days", type=int, default=30,
                        help="length of the demo history (default: 30)")

    s_info = store_cmds.add_parser(
        "info", help="describe a store's histories and checkpoints")
    s_info.add_argument("path", type=Path)
    s_info.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the description as JSON")

    s_fsck = store_cmds.add_parser(
        "fsck", help="verify segment and checkpoint integrity")
    s_fsck.add_argument("path", type=Path)
    s_fsck.add_argument("--repair", action="store_true",
                        help="truncate torn tails and drop unreadable "
                             "checkpoints")
    s_fsck.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")

    s_ckpt = store_cmds.add_parser(
        "checkpoint", help="materialize a snapshot checkpoint now")
    s_ckpt.add_argument("path", type=Path)
    s_ckpt.add_argument("name", help="history name")

    s_compact = store_cmds.add_parser(
        "compact", help="consolidate a history's segments")
    s_compact.add_argument("path", type=Path)
    s_compact.add_argument("name", help="history name")
    s_compact.add_argument("--before", default=None, metavar="TIME",
                           help="retention horizon: promote the state at "
                                "TIME to the new origin and drop older "
                                "records (default: keep everything)")

    serve = commands.add_parser(
        "serve-metrics",
        help="serve /metrics, /metrics.json, and /health over HTTP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 = ephemeral; the "
                            "bound port is printed)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds then exit "
                            "(default: until interrupted)")

    top = commands.add_parser(
        "top", help="live view of the metrics registry")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit")
    top.add_argument("--json", action="store_true", dest="as_json",
                     help="emit raw JSON instead of the table")
    top.add_argument("--prefix", default=None,
                     help="only show metrics under this prefix")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds (default: 2)")
    top.add_argument("--url", default=None,
                     help="scrape a serve-metrics endpoint instead of "
                          "this process's registry")
    top.add_argument("--store", type=Path, default=None,
                     help="also show a change-log store's histories "
                          "(read-only, refreshed every interval)")
    return parser


def _demo_doem():
    """The built-in demo history (see ``demo_world``), as a DOEM db."""
    from .doem.build import build_doem
    from .sources.generators import demo_world

    return build_doem(*demo_world())


def _open_doem(store_path: Path, name: str | None):
    """A DOEM database from a change-log store.

    The store is opened read-only through the process-shared handle, so
    a CLI invocation in the same process as a serving
    :class:`~repro.qss.server.QSSServer` observes the *served* history
    rather than constructing an independent copy; the rebuilt DOEM's
    snapshot cache reads through the store's durable checkpoints.
    """
    from .doem.snapshot import snapshot_cache
    from .store import open_store

    if name is None:
        raise ReproError("--store requires --db NAME")
    log = open_store(store_path, "ro").log(name)
    doem = log.get_doem()
    snapshot_cache(doem).attach_store(log)
    return doem


def _load_oem(path: Path):
    return loads(path.read_text(encoding="utf-8"))


def _run(args: argparse.Namespace, out) -> int:
    if args.command == "validate":
        db = _load_oem(args.file)
        db.check()
        print(f"OK: {len(db)} node(s), {db.arc_count()} arc(s), "
              f"root &{db.root}", file=out)

    elif args.command == "show":
        db = _load_oem(args.file)
        print(db.describe(max_depth=args.depth), file=out)

    elif args.command == "query":
        db = _load_oem(args.file)
        engine = LorelEngine(db, name=args.name or db.root)
        result = engine.run(args.text)
        print(result if result else "(empty result)", file=out)

    elif args.command == "diff":
        old_db, new_db = _load_oem(args.old), _load_oem(args.new)
        changes = oem_diff(old_db, new_db)
        if not changes:
            print("(no changes)", file=out)
        for op in changes.canonical_order():
            print(op, file=out)

    elif args.command == "htmldiff":
        result = html_diff(args.old.read_text(encoding="utf-8"),
                           args.new.read_text(encoding="utf-8"))
        if args.output is not None:
            args.output.write_text(result.markup, encoding="utf-8")
            print(f"{result.stats} -> {args.output}", file=out)
        else:
            print(result.markup, file=out)

    elif args.command == "history":
        doem = _open_doem(args.store, args.name)
        history = encoded_history(doem)
        if not len(history):
            print("(empty history)", file=out)
        for when, changes in history:
            print(f"{when}:", file=out)
            for op in changes.canonical_order():
                print(f"  {op}", file=out)

    elif args.command == "timeline":
        doem = _open_doem(args.store, args.name)
        events = doem.timeline(args.node)
        if not events:
            print(f"&{args.node}: no recorded changes", file=out)
        for when, text in events:
            print(f"{when}: {text}", file=out)

    elif args.command == "chorel":
        doem = _open_doem(args.store, args.name)
        db_name = args.db_name or doem.graph.root
        if args.translate:
            engine = TranslatingChorelEngine(doem, name=db_name)
            translation = engine.translate(args.text)
            print("-- translated Lorel:", file=out)
            for line in translation.text().splitlines():
                print(f"--   {line}", file=out)
            result = engine.run(args.text)
        else:
            result = ChorelEngine(doem, name=db_name).run(args.text)
        print(result if result else "(empty result)", file=out)

    elif args.command in ("explain", "analyze"):
        if args.store is not None:
            doem = _open_doem(args.store, args.db)
        else:
            doem = _demo_doem()
        db_name = args.db_name or doem.graph.root
        if args.backend == "native":
            engine = ChorelEngine(doem, name=db_name)
        elif args.backend == "translate":
            engine = TranslatingChorelEngine(doem, name=db_name)
        else:
            from .chorel.optimize import IndexedChorelEngine
            engine = IndexedChorelEngine(doem, name=db_name)
        if args.command == "explain":
            compiled = engine.compile(args.text)
            print(f"-- EXPLAIN ({args.backend}):", file=out)
            print(compiled.explain(), file=out)
            return 0
        import json
        result = engine.run(args.text, analyze=True)
        compiled = engine.last_compiled
        runtime = compiled.runtime
        print(f"-- EXPLAIN ANALYZE ({args.backend}):", file=out)
        print(compiled.explain(analyze=True), file=out)
        print(f"-- {len(result)} row(s); "
              f"compile {compiled.compile_seconds * 1000:.3f} ms, "
              f"execute {runtime.execute_seconds * 1000:.3f} ms", file=out)
        if args.json_path is not None:
            payload = {"query": args.text,
                       "backend": args.backend,
                       "rows": len(result),
                       "fingerprint": compiled.fingerprint,
                       "compile_seconds": round(compiled.compile_seconds, 6),
                       "execute_seconds": round(runtime.execute_seconds, 6),
                       "plan": runtime.to_dict()}
            args.json_path.write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            print(f"-- JSON observation -> {args.json_path}", file=out)

    elif args.command == "store":
        import json as _json
        from .store import ChangeLogStore, open_store

        if args.store_command == "init":
            open_store(args.path, "rw").flush()
            print(f"initialized change-log store at {args.path}", file=out)

        elif args.store_command == "demo":
            from .sources.generators import demo_world
            origin, history = demo_world(days=args.days)
            store = open_store(args.path, "rw")
            log = store.put_history(args.name, origin, history)
            log.write_checkpoint()
            store.flush()
            info = log.info()
            print(f"persisted {info['change_sets']} change set(s) "
                  f"({info['operations']} op(s)) as {args.name!r}; "
                  f"{info['checkpoints']} checkpoint(s)", file=out)

        elif args.store_command == "info":
            with ChangeLogStore(args.path, "ro") as store:
                info = store.info()
            if args.as_json:
                print(_json.dumps(info, indent=2), file=out)
            else:
                print(_render_store(info), file=out)

        elif args.store_command == "fsck":
            mode = "rw" if args.repair else "ro"
            with ChangeLogStore(args.path, mode) as store:
                report = store.fsck(repair=args.repair)
            if args.as_json:
                print(_json.dumps(report, indent=2), file=out)
            else:
                for history in report["histories"]:
                    status = "ok" if history["ok"] else "CORRUPT"
                    print(f"{history['name']}: {status} "
                          f"(generation {history.get('generation', '?')}, "
                          f"{len(history['segments'])} segment(s), "
                          f"{history.get('checkpoints', 0)} checkpoint(s))",
                          file=out)
                    for problem in history["problems"]:
                        print(f"  problem: {problem}", file=out)
                    for fixed in history["repaired"]:
                        print(f"  repaired: {fixed}", file=out)
                for problem in report["problems"]:
                    print(f"problem: {problem}", file=out)
                print("store: ok" if report["ok"]
                      else "store: PROBLEMS FOUND", file=out)
            return 0 if report["ok"] else 1

        elif args.store_command == "checkpoint":
            store = open_store(args.path, "rw")
            ref = store.checkpoint(args.name)
            if ref is None:
                print(f"{args.name}: empty history, origin is the tip "
                      f"(no checkpoint needed)", file=out)
            else:
                print(f"{args.name}: checkpoint {ref.name} at {ref.at}",
                      file=out)

        elif args.store_command == "compact":
            store = open_store(args.path, "rw")
            summary = store.compact(args.name, before=args.before)
            print(f"{args.name}: generation {summary['generation']}, "
                  f"dropped {summary['dropped_sets']} change set(s), "
                  f"{summary['dropped_segments']} segment(s), "
                  f"{summary['dropped_checkpoints']} checkpoint(s)",
                  file=out)

    elif args.command == "serve-metrics":
        from .obs.http import serve_metrics
        server = serve_metrics(args.host, args.port)
        host, port = server.address
        print(f"serving metrics on http://{host}:{port} "
              f"(/metrics, /metrics.json, /health)", file=out, flush=True)
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:  # pragma: no cover - interactive mode
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
        finally:
            server.stop()

    elif args.command == "top":
        import json

        def _snapshot() -> dict:
            if args.url:
                from urllib.request import urlopen
                query = f"?prefix={args.prefix}" if args.prefix else ""
                url = args.url.rstrip("/") + "/metrics.json" + query
                with urlopen(url) as response:
                    return json.loads(response.read().decode("utf-8"))
            from .obs.metrics import registry as metrics_registry
            return metrics_registry().snapshot(args.prefix)

        while True:
            snapshot = _snapshot()
            if args.as_json:
                print(json.dumps(snapshot, indent=2), file=out, flush=True)
            else:
                if not args.once:  # pragma: no cover - interactive mode
                    print("\x1b[2J\x1b[H", end="", file=out)
                print(_render_top(snapshot), file=out, flush=True)
                if not args.url:
                    from .obs.querylog import query_log
                    aggregates = query_log().aggregates()
                    if aggregates:
                        print(_render_queries(aggregates), file=out,
                              flush=True)
                if args.store is not None:
                    from .store import ChangeLogStore
                    with ChangeLogStore(args.store, "ro") as store:
                        info = store.info()
                    print(_render_store(info), file=out, flush=True)
            if args.once:
                break
            time.sleep(args.interval)  # pragma: no cover - interactive

    else:  # pragma: no cover - argparse enforces the choices
        raise ReproError(f"unknown command {args.command!r}")
    return 0


def _render_top(snapshot: dict) -> str:
    """The ``repro top`` table: one line per series, histograms reduced
    to count/mean so the view stays one terminal page."""
    lines = [f"{'metric':<56} value",
             "-" * 72]
    for name, value in snapshot.items():
        if isinstance(value, dict):  # histogram snapshot
            count = value.get("count", 0)
            mean = (value.get("sum", 0.0) / count) if count else 0.0
            lines.append(f"{name:<56} count={count} "
                         f"mean={mean * 1000:.3f}ms")
        else:
            lines.append(f"{name:<56} {value}")
    if len(lines) == 2:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def _render_store(info: dict) -> str:
    """The store section (``repro store info`` / ``repro top --store``):
    one line per history, durable shape at a glance, then one line per
    recorded subscription."""
    lines = [f"store {info['path']}: {len(info['histories'])} history(ies), "
             f"{info['change_sets']} change set(s), "
             f"{info['checkpoints']} checkpoint(s), "
             f"{len(info['subscriptions'])} subscription(s)",
             f"{'history':<24} {'gen':>4} {'segs':>5} {'sets':>6} "
             f"{'ops':>7} {'ckpts':>5} {'nodes':>7}  span",
             "-" * 78]
    for name, h in sorted(info["histories"].items()):
        span = "(empty)" if h["first_timestamp"] is None \
            else f"{h['first_timestamp']} .. {h['last_timestamp']}"
        lines.append(
            f"{name:<24} {h['generation']:>4} {h['segments']:>5} "
            f"{h['change_sets']:>6} {h['operations']:>7} "
            f"{h['checkpoints']:>5} {h['tip_nodes']:>7}  {span}")
        if h["recovered_tail"]:
            lines.append(f"  (recovered torn tail: {h['recovered_tail']})")
    if not info["histories"]:
        lines.append("(no histories)")
    for name, sub in info["subscriptions"].items():
        lines.append(f"subscription {name}: wrapper {sub['wrapper']}, "
                     f"DOEM key {sub['doem_key']!r}, {sub['polls']} "
                     f"poll(s), last {sub['last_poll']}")
    return "\n".join(lines)


def _render_queries(aggregates: dict) -> str:
    """The ``repro top`` query-log section: one line per plan
    fingerprint, busiest queries first."""
    lines = ["",
             f"{'fingerprint':<14} {'count':>5} {'rows':>7} "
             f"{'mean':>9} {'max':>9} {'slow':>4}  query",
             "-" * 72]
    ranked = sorted(aggregates.items(),
                    key=lambda item: item[1]["count"], reverse=True)
    for fingerprint, agg in ranked:
        query = " ".join(agg.get("query", "").split())
        if len(query) > 40:
            query = query[:37] + "..."
        lines.append(
            f"{fingerprint:<14} {agg['count']:>5} {agg['rows']:>7} "
            f"{agg['mean_seconds'] * 1000:>7.2f}ms "
            f"{agg['max_seconds'] * 1000:>7.2f}ms "
            f"{agg.get('slow', 0):>4}  {query}")
    return "\n".join(lines)


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.events is not None:
        from .obs.events import configure_events
        configure_events(str(args.events), level=args.events_level)
    try:
        return _run(args, out)
    except (ReproError, FileNotFoundError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
