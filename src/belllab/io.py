"""File formats: trials CSV, time-tag CSV, pairs CSV, sweep CSV, report JSON.

Every output file embeds a schema-version field and the resolved seed: CSVs
carry them in a leading ``#`` comment line, JSON documents as top-level
fields. All writers are deterministic (sorted JSON keys, integer columns,
repr-precision floats, no timestamps), so identical inputs produce
byte-identical files.

``dump_json`` is the one place a result becomes JSON. A JSON document writes
each result as its dataclass fields, a ``ContextTable`` or
``CorrelationSummary`` as one entry per context key and an array as a list.
The blocks of ``report.json`` are the fields of one ``analysis.Report``, the
two-sided test included. Two types shape their own JSON with ``to_json``:
``WindowPoint`` writes ``S`` and its summary's retention C and leaves out its
table and pairing audit, and ``FeasibilityResult`` labels its joint weights
by strategy. The window-sweep CSV reads C from the same summary.

The integer CSV writers format whole columns at once with numpy, in row
blocks that ``core.ordered_map`` spreads over the ``BELLLAB_THREADS``
workers and that are written in order. The blocks in flight hold at most
``BLOCK_ROWS`` rows together, so memory stays flat however long the file and
whatever the worker count. The readers check the two header lines, then
give ``np.loadtxt`` the path, not the open file: numpy parses a file it
opened itself in large chunks in C, but iterates any other object one Python
line at a time. Given a path, it picks a decompressor from the suffix, so
the readers refuse ``.gz``, ``.bz2``, ``.xz`` and ``.lzma`` names. Trial ids
and time tags are parsed as int64 and every code column as int16: a code
cell beyond int16 is a parse error, and ``core.codes`` checks the rest
before narrowing them to int8. Every reader message places a row as ``data
row N``, counting the rows that hold data from 1.

Column schemas:

* trials CSV: ``trial_id,x,y,a,b,ready`` (outcomes +1/-1/0, ready 0/1)
* time-tag CSV: ``time_ns,setting,outcome`` (outcome +1/-1)
* pairs CSV: ``x,y,a,b`` (settings 0/1 or -1 when unknown)
* theta sweep CSV: ``theta_rad,E,stderr,n`` (empty E for starved points)
* window sweep CSV: per-width S, per-context E, retention C, pair counts
* summary CSV: ``context,e_ab,e_a,e_b,c,n_pairs,n_total`` (empty when undefined)
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import SweepPoint
from .core import CONTEXTS, ContextTable, CorrelationSummary, ordered_map, row_blocks
from .errors import ConfigError, section
from .pipeline import PairedRawData, RawEventStream, WindowPoint

SCHEMA_VERSION = 1

#: Rows the integer CSV writers format at once, over all workers. Output bytes
#: do not depend on it; it bounds the writers' memory.
BLOCK_ROWS = 1 << 18

__all__ = [
    "SCHEMA_VERSION",
    "write_trials_csv",
    "read_trials_csv",
    "write_timetags_csv",
    "read_timetags_csv",
    "write_pairs_csv",
    "read_pairs_csv",
    "theta_sweep_csv",
    "window_sweep_csv",
    "summary_csv",
    "dump_json",
]


def _header(kind: str, seed: int, **extra: object) -> str:
    parts = [f"schema_version={SCHEMA_VERSION}", f"kind={kind}", f"seed={seed}"]
    parts += [f"{k}={v}" for k, v in sorted(extra.items())]
    return "# belllab " + " ".join(parts)


def _parse_header(line: str, path: str) -> dict[str, str]:
    if not line.startswith("# belllab "):
        raise ConfigError(path, "missing belllab header line")
    fields = {}
    for token in line[len("# belllab ") :].split():
        if "=" not in token:
            raise ConfigError(path, f"malformed header token {token!r}")
        k, v = token.split("=", 1)
        fields[k] = v
    return fields


def _cells(values: np.ndarray, sep: str) -> np.ndarray:
    """Characters of ``values`` as decimal integers, one column each, then ``sep``.

    Returns a ``(width + 2, rows)`` uint8 matrix holding ``-``, the digits
    right-aligned and ``sep``; a sign or leading digit a value does not use is 0.
    """
    # abs() wraps a column's most negative value onto itself; as unsigned that
    # is its magnitude (2**63 for int64). Each column keeps its own width.
    mag = np.abs(values).view(f"u{values.itemsize}")
    top = int(mag.max())
    width = len(str(top))
    if values.itemsize == 8 and top < 2**32:
        mag = mag.astype(np.uint32)  # the same digits from cheaper divisions
    chars = np.empty((width + 2, len(values)), dtype=np.uint8)
    np.multiply(values < 0, ord("-"), out=chars[0], casting="unsafe")
    for j in range(width, 0, -1):
        # A digit is used when the value reaches its place; the units digit always is.
        offset = ord("0") if j == width else (mag != 0).view(np.uint8) * ord("0")
        mag, chars[j] = np.divmod(mag, 10)
        chars[j] |= offset
    chars[-1] = ord(sep)
    return chars


def _int_csv(path: Path, header: str, columns: dict[str, np.ndarray]) -> None:
    """Write ``header``, the column names and the rows as decimal integers.

    Row blocks are formatted on the workers and written in order. The blocks
    in flight hold at most BLOCK_ROWS rows together, which bounds the memory
    of the character matrices whatever the file size and worker count.
    """
    arrays = list(columns.values())
    seps = "," * (len(arrays) - 1) + "\n"

    def block(span: tuple[int, int]) -> bytes:
        start, stop = span
        chars = np.vstack([_cells(a[start:stop], sep) for a, sep in zip(arrays, seps)])
        # Row-major bytes of the block, less the unused (0) characters.
        return chars.T.tobytes().translate(None, b"\0")

    with path.open("wb") as f:
        f.write(f"{header}\n{','.join(columns)}\n".encode())
        for text in ordered_map(block, row_blocks(len(arrays[0]), BLOCK_ROWS)):
            f.write(text)


def _located(message: str) -> str:
    """numpy's loadtxt message with its row as ``data row N``, counted from 1.

    numpy counts from 0 for a cell it cannot convert, and from 1, adding a
    hint about ``usecols``, for a short or long row.
    """
    m = re.fullmatch(r"(.*) at row (\d+)(?:(, column \d+)\.|; use `usecols`.*)", message)
    if m is None:
        return message
    return f"{m[1]} at data row {int(m[2]) + (m[3] is not None)}{m[3] or ''}"


def _read_int_csv(path: Path, kind: str, columns: Sequence[str]) -> tuple[dict, list[np.ndarray]]:
    """The header fields and one contiguous array per column; ``trial_id`` is
    parsed and checked as int64, then dropped."""
    name = str(path)
    # np.loadtxt would pick a decompressor from the suffix.
    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        raise ConfigError(name, f"CSV inputs are read as plain text; rename this {path.suffix} file")
    # A UnicodeDecodeError is a ValueError, so it names the file.
    with section(name), path.open(encoding="utf-8") as f:
        first, names = f.readline(), f.readline()
        # loadtxt warns on a body with no data; such a body holds zero rows.
        has_rows = any(line.strip() for line in iter(f.readline, ""))
    if not first:
        raise ConfigError(name, "empty file")
    header = _parse_header(first, name)
    if header.get("kind") != kind:
        raise ConfigError(name, f"expected kind={kind}, got {header.get('kind')!r}")
    if names.rstrip("\n").split(",") != list(columns):
        raise ConfigError(name, f"expected columns {','.join(columns)}")
    dtype = np.dtype([(c, np.int64 if c in ("trial_id", "time_ns") else np.int16) for c in columns])
    data = np.zeros(0, dtype)
    try:
        # A short or long row, or a cell out of its field's range, raises ValueError.
        if has_rows:
            data = np.loadtxt(name, dtype, delimiter=",", skiprows=2, ndmin=1, encoding="utf-8")
    except ValueError as e:  # a UnicodeDecodeError in the body too
        raise ConfigError(name, _located(str(e))) from e
    # Contiguous columns compare several times faster than the strided fields.
    return header, [np.ascontiguousarray(data[c]) for c in columns if c != "trial_id"]


def write_trials_csv(path: Path, run: PairedRawData, seed: int) -> None:
    n = len(run)
    columns = {"trial_id": np.arange(n), "x": run.x, "y": run.y, "a": run.a, "b": run.b}
    _int_csv(path, _header("trials", seed), {**columns, "ready": np.ones(n, dtype=np.int8)})


def read_trials_csv(path: Path) -> PairedRawData:
    """Read a trials CSV, keeping the ready rows.

    A ready trial has settings 0 or 1 and outcomes +1 or -1; a file that
    breaks this is rejected.
    """
    columns = ("trial_id", "x", "y", "a", "b", "ready")
    _, (x, y, a, b, ready) = _read_int_csv(path, "trials", columns)
    if not ((ready == 0) | (ready == 1)).all():
        raise ConfigError(str(path), "ready must be 0 or 1")
    ready = ready == 1
    settings_known = ((x == 0) | (x == 1)) & ((y == 0) | (y == 1))
    valid = settings_known & ((a == 1) | (a == -1)) & ((b == 1) | (b == -1))
    bad = np.flatnonzero(ready & ~valid)
    if bad.size:
        raise ConfigError(
            str(path),
            f"data row {bad[0] + 1}: a ready trial needs settings 0 or 1 and outcomes +1 or -1",
        )
    # Every kept code is checked, so the cast changes no value.
    return PairedRawData(*(column[ready].astype(np.int8) for column in (x, y, a, b)))


def write_timetags_csv(path: Path, stream: RawEventStream, seed: int) -> None:
    _int_csv(
        path,
        _header("timetags", seed, station=stream.station),
        {"time_ns": stream.times, "setting": stream.settings, "outcome": stream.outcomes},
    )


def read_timetags_csv(path: Path) -> RawEventStream:
    columns = ("time_ns", "setting", "outcome")
    header, (times, settings, outcomes) = _read_int_csv(path, "timetags", columns)
    station = header.get("station")
    if station not in ("A", "B"):
        raise ConfigError(str(path), "header must carry station=A or station=B")
    with section(str(path)):
        return RawEventStream(station=station, times=times, settings=settings, outcomes=outcomes)


def write_pairs_csv(path: Path, pairs: PairedRawData, seed: int) -> None:
    _int_csv(path, _header("pairs", seed), {"x": pairs.x, "y": pairs.y, "a": pairs.a, "b": pairs.b})


def read_pairs_csv(path: Path) -> PairedRawData:
    _, columns = _read_int_csv(path, "pairs", ("x", "y", "a", "b"))
    with section(str(path)):
        return PairedRawData(*columns)


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _text_csv(kind: str, seed: int, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """The header, the column names and one line per row of cells, each ending in a newline."""
    lines = [_header(kind, seed), ",".join(columns), *(",".join(row) for row in rows)]
    return "\n".join(lines) + "\n"


def theta_sweep_csv(points: Sequence[SweepPoint], seed: int) -> str:
    rows = [[repr(p.theta), _cell(p.e_ab), repr(p.stderr), str(p.n)] for p in points]
    return _text_csv("theta-sweep", seed, ["theta_rad", "E", "stderr", "n"], rows)


def window_sweep_csv(points: Sequence[WindowPoint], seed: int) -> str:
    columns = ["window_ns", "S"] + [f"{c}_{s.key()}" for c in ("e", "c", "n_pairs") for s in CONTEXTS]
    rows = [
        [str(p.window_ns), _cell(p.s)]
        + [_cell(p.summary[s].e_ab) for s in CONTEXTS]
        + [_cell(p.summary[s].c) for s in CONTEXTS]
        + [str(p.summary[s].n_pairs) for s in CONTEXTS]
        for p in points
    ]
    return _text_csv("window-sweep", seed, columns, rows)


def summary_csv(summary: CorrelationSummary, seed: int) -> str:
    columns = ["context", "e_ab", "e_a", "e_b", "c", "n_pairs", "n_total"]
    rows = []
    for s in CONTEXTS:
        est = summary[s]
        cells = [_cell(v) for v in (est.e_ab, est.e_a, est.e_b, est.c)]
        rows.append([s.key(), *cells, str(est.n_pairs), str(est.n_total)])
    return _text_csv("summary", seed, columns, rows)


def _encode(obj: object) -> object:
    """The JSON form of a value ``json`` cannot write itself; nested values come back here."""
    if isinstance(obj, ContextTable):  # a dataclass too, written by context before the branch below
        return {s.key(): obj.counts[s.x, s.y] for s in CONTEXTS}
    if isinstance(obj, CorrelationSummary):
        return {s.key(): obj[s] for s in CONTEXTS}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot write a {type(obj).__qualname__} as JSON")


def dump_json(obj: dict) -> str:
    """Deterministic JSON serialization (sorted keys, full float precision)."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_encode) + "\n"
