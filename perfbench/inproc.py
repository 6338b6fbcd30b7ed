"""Run belllab CLI phases inside one process, optionally tracing each layer.

    python3 inproc.py PHASES_JSON RESULT_JSON TRACE

PHASES_JSON holds a list of argument lists for ``belllab.cli.main``, run in
order. With TRACE=1 the public functions of each belllab layer are rebound,
where their callers look them up, to wrappers that record a span: name,
start, end, parent span, rows in and out, and a few exact counts (bytes a
file reader or writer touched, pairs matched, rows retained, events made).
Spans stay in memory and are written to RESULT_JSON at the end, together
with each phase's wall time and exit code, the import time of
``belllab.cli`` and the time of each protocol call replayed at
BELLLAB_THREADS=1.

Nothing in the belllab sources changes: the wrappers live only in this
process.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import platform
import sys
import threading
import time
import traceback


def _rows(value) -> int | None:
    """Row count of a layer's input or output, where it has one."""
    if isinstance(value, tuple):
        return _rows(value[0]) if value else None
    if hasattr(value, "stream_a"):  # protocol.SourceRun: events of both stations
        return len(value.stream_a) + len(value.stream_b)
    if isinstance(value, (str, bytes, dict, os.PathLike)):
        return None
    try:
        return len(value)
    except TypeError:
        return None


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _matched(args, result) -> dict:
    meta = result.meta
    return {"matched": meta["matched"], "min_events": min(meta["events_a"], meta["events_b"])}


def _retained(args, result) -> dict:
    meta = result[0].meta
    return {"retained": meta["retained_rows"], "input_rows": meta["input_rows"]}


def _events(args, result) -> dict:
    return {"events": _rows(result)}


#: Span names that differ from "<module>.<function>".
NAMES = {"match_coincidences": lambda args: f"pipeline.match_{args[2].strategy}"}

#: Exact counts recorded beside the span of these functions.
NOTES = {
    "write_trials_csv": _file_bytes,
    "write_timetags_csv": _file_bytes,
    "write_pairs_csv": _file_bytes,
    "read_trials_csv": _file_bytes,
    "read_timetags_csv": _file_bytes,
    "read_pairs_csv": _file_bytes,
    "match_coincidences": _matched,
    "postselect": _retained,
    "run_event_ready": _events,
    "run_source_experiment": _events,
}


class Tracer:
    """In-memory span recorder for calls made on the main thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.protocol_calls: dict[str, tuple] = {}  # last call, replayed single-threaded
        self._stack: list[int] = []
        self._main = threading.main_thread()

    def wrap(self, fn, name, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name(args) if callable(name) else name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["rows_in"] = next((r for r in map(_rows, args) if r is not None), None)
            span["rows_out"] = _rows(result)
            if note is not None:
                span.update(note(args, result))
            if span["name"].startswith("protocol."):
                self.protocol_calls[span["name"]] = (fn, args, kwargs)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind the layer functions that the CLI, io, pipeline and analysis call."""
    import belllab.analysis
    import belllab.cli
    import belllab.core
    import belllab.io
    import belllab.pipeline

    wrappers = {}

    def traced(fn):
        if fn not in wrappers:
            name = NAMES.get(fn.__name__, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
            wrappers[fn] = tracer.wrap(fn, name, NOTES.get(fn.__name__))
        return wrappers[fn]

    for module in (belllab.cli, belllab.io, belllab.pipeline, belllab.analysis):
        for attr, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__.startswith("belllab.")
                and value.__module__ != "belllab.cli"
            ):
                setattr(module, attr, traced(value))
    table = belllab.core.ContextTable
    table.from_arrays = classmethod(traced(table.__dict__["from_arrays"].__func__))


def run_phase(main, argv: list[str]) -> int:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except Exception:  # a crashed phase is reported as failed, the others still run
        traceback.print_exc()
        return 3


def main(argv: list[str]) -> int:
    phases_path, result_path, trace = argv[1], argv[2], argv[3] == "1"
    with open(phases_path) as f:
        phases = json.load(f)

    start = time.perf_counter()
    import belllab.cli
    import numpy

    import_s = time.perf_counter() - start
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)

    results = []
    for args in phases:
        entry = belllab.cli.main
        if tracer is not None:
            entry = tracer.wrap(entry, f"cli.{args[0]}")
        t0 = time.perf_counter()
        rc = run_phase(entry, args)
        results.append({"phase": args[0], "rc": rc, "wall_s": time.perf_counter() - t0})

    single_thread_s = {}
    if tracer is not None:
        os.environ["BELLLAB_THREADS"] = "1"
        for name, (fn, args, kwargs) in tracer.protocol_calls.items():
            t0 = time.perf_counter()
            fn(*args, **kwargs)
            single_thread_s[name] = time.perf_counter() - t0

    doc = {
        "import_s": import_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "phases": results,
        "spans": tracer.spans if tracer is not None else [],
        "single_thread_s": single_thread_s,
    }
    with open(result_path, "w") as f:
        json.dump(doc, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
