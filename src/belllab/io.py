"""File formats: trials CSV, time-tag CSV, pairs CSV, sweep CSV, report JSON.

Every output file embeds a schema-version field and the resolved seed: CSVs
carry them in a leading ``#`` comment line, JSON documents as top-level
fields. All writers are deterministic (sorted JSON keys, integer columns,
repr-precision floats, no timestamps), so identical inputs produce
byte-identical files.

The integer CSV writers format whole columns at once with numpy, in blocks
of ``BLOCK_ROWS`` rows, so memory stays flat however long the file. The
readers parse the two header lines, then hand the open file to
``np.loadtxt``, which streams the rows without a copy of the text.

Column schemas:

* trials CSV: ``trial_id,x,y,a,b,ready`` (outcomes +1/-1/0, ready 0/1)
* time-tag CSV: ``time_ns,setting,outcome`` (outcome +1/-1)
* pairs CSV: ``x,y,a,b`` (settings 0/1 or -1 when unknown)
* theta sweep CSV: ``theta_rad,E,stderr,n`` (empty E for starved points)
* window sweep CSV: per-width S, per-context E, retention C, pair counts
* summary CSV: ``context,e_ab,e_a,e_b,c,n_pairs,n_total`` (empty when undefined)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import SweepPoint
from .core import CONTEXTS, CorrelationSummary
from .errors import ConfigError
from .pipeline import PairedRawData, WindowPoint
from .protocol import EventReadyRun, RawEventStream

SCHEMA_VERSION = 1

#: Rows formatted per write by the integer CSV writers. Output bytes do not
#: depend on it; it bounds the writers' memory.
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


def _digits(values: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """Characters of ``values`` as decimal integers, one row each, then ``sep``.

    Returns a ``(rows, width)`` uint8 matrix holding ``-``, the digits
    right-aligned and ``sep``, and the mask of the characters each value uses.
    """
    v = np.asarray(values, dtype=np.int64)
    # abs() wraps INT64_MIN onto itself; as uint64 that is its magnitude, 2**63.
    mag = np.abs(v).view(np.uint64)
    width = len(str(int(mag.max())))
    chars = np.empty((len(v), width + 2), dtype=np.uint8)
    mask = np.ones(chars.shape, dtype=bool)
    chars[:, 0] = ord("-")
    mask[:, 0] = v < 0
    # A digit is used when the value reaches its place; the units digit always is.
    places = np.array([10**k for k in range(width - 1, 0, -1)] + [0], dtype=np.uint64)
    mask[:, 1:-1] = mag[:, None] >= places
    for j in range(width, 0, -1):
        mag, chars[:, j] = np.divmod(mag, 10)
    chars[:, 1:-1] += ord("0")
    chars[:, -1] = ord(sep)
    return chars, mask


def _int_csv(path: Path, header: str, columns: dict[str, np.ndarray]) -> None:
    """Write ``header``, the column names and the rows as decimal integers.

    Rows are formatted and written BLOCK_ROWS at a time, which bounds the
    memory of the character matrices whatever the file size.
    """
    arrays = list(columns.values())
    with path.open("wb") as f:
        f.write(f"{header}\n{','.join(columns)}\n".encode())
        for start in range(0, len(arrays[0]), BLOCK_ROWS):
            stop = start + BLOCK_ROWS
            parts = [
                _digits(a[start:stop], "\n" if i == len(arrays) - 1 else ",")
                for i, a in enumerate(arrays)
            ]
            chars = np.hstack([c for c, _ in parts])
            f.write(chars[np.hstack([m for _, m in parts])].tobytes())


def _read_int_csv(path: Path, kind: str, columns: Sequence[str]) -> tuple[dict, np.ndarray]:
    with path.open() as f:
        first = f.readline()
        if not first:
            raise ConfigError(str(path), "empty file")
        header = _parse_header(first, str(path))
        if header.get("kind") != kind:
            raise ConfigError(str(path), f"expected kind={kind}, got {header.get('kind')!r}")
        if f.readline().rstrip("\n").split(",") != list(columns):
            raise ConfigError(str(path), f"expected columns {','.join(columns)}")
        body = f.tell()
        # loadtxt warns on a body with no data; such a body holds zero rows.
        if any(line.strip() for line in iter(f.readline, "")):
            f.seek(body)
            try:
                data = np.loadtxt(f, dtype=np.int64, delimiter=",", ndmin=2)
            except ValueError as e:
                raise ConfigError(str(path), str(e)) from e
        else:
            data = np.zeros((0, len(columns)), dtype=np.int64)
    if data.shape[1] != len(columns):
        raise ConfigError(str(path), f"expected {len(columns)} columns")
    return header, data


def write_trials_csv(path: Path, run: EventReadyRun, seed: int) -> None:
    n = len(run)
    _int_csv(
        path,
        _header("trials", seed),
        {
            "trial_id": np.arange(n),
            "x": run.x,
            "y": run.y,
            "a": run.a,
            "b": run.b,
            "ready": np.ones(n, dtype=np.int64),
        },
    )


def read_trials_csv(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read a trials CSV; returns (x, y, a, b) with ready rows only.

    A ready trial has both outcomes nonzero; a file that breaks this is rejected.
    """
    _, data = _read_int_csv(path, "trials", ("trial_id", "x", "y", "a", "b", "ready"))
    if not np.isin(data[:, 5], (0, 1)).all():
        raise ConfigError(str(path), "ready must be 0 or 1")
    ready = data[:, 5] == 1
    bad = np.flatnonzero(ready & ((data[:, 3] == 0) | (data[:, 4] == 0)))
    if bad.size:
        raise ConfigError(str(path), f"data row {bad[0] + 1}: a ready trial needs nonzero outcomes")
    return data[ready, 1], data[ready, 2], data[ready, 3], data[ready, 4]


def write_timetags_csv(path: Path, stream: RawEventStream, seed: int) -> None:
    _int_csv(
        path,
        _header("timetags", seed, station=stream.station),
        {"time_ns": stream.times, "setting": stream.settings, "outcome": stream.outcomes},
    )


def read_timetags_csv(path: Path) -> RawEventStream:
    header, data = _read_int_csv(path, "timetags", ("time_ns", "setting", "outcome"))
    station = header.get("station")
    if station not in ("A", "B"):
        raise ConfigError(str(path), "header must carry station=A or station=B")
    try:
        return RawEventStream(
            station=station, times=data[:, 0], settings=data[:, 1], outcomes=data[:, 2]
        )
    except ValueError as e:
        raise ConfigError(str(path), str(e)) from e


def write_pairs_csv(path: Path, pairs: PairedRawData, seed: int) -> None:
    _int_csv(path, _header("pairs", seed), {"x": pairs.x, "y": pairs.y, "a": pairs.a, "b": pairs.b})


def read_pairs_csv(path: Path) -> PairedRawData:
    _, data = _read_int_csv(path, "pairs", ("x", "y", "a", "b"))
    try:
        return PairedRawData(x=data[:, 0], y=data[:, 1], a=data[:, 2], b=data[:, 3])
    except ValueError as e:
        raise ConfigError(str(path), str(e)) from e


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def theta_sweep_csv(points: Sequence[SweepPoint], seed: int) -> str:
    lines = [_header("theta-sweep", seed), "theta_rad,E,stderr,n"]
    for p in points:
        lines.append(f"{p.theta!r},{_cell(p.e_ab)},{p.stderr!r},{p.n}")
    return "\n".join(lines) + "\n"


def window_sweep_csv(points: Sequence[WindowPoint], seed: int) -> str:
    ctx = [s.key() for s in CONTEXTS]
    columns = (
        ["window_ns", "S"]
        + [f"e_{k}" for k in ctx]
        + [f"c_{k}" for k in ctx]
        + [f"n_pairs_{k}" for k in ctx]
    )
    lines = [_header("window-sweep", seed), ",".join(columns)]
    for p in points:
        row = [str(p.window_ns), _cell(p.s)]
        row += [_cell(p.summary[s].e_ab) for s in CONTEXTS]
        row += [_cell(p.c_by_context[s.key()]) for s in CONTEXTS]
        row += [str(p.summary[s].n_pairs) for s in CONTEXTS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_csv(summary: CorrelationSummary, seed: int) -> str:
    lines = [_header("summary", seed), "context,e_ab,e_a,e_b,c,n_pairs,n_total"]
    for s in CONTEXTS:
        est = summary[s]
        cells = [_cell(v) for v in (est.e_ab, est.e_a, est.e_b, est.c)]
        lines.append(",".join([s.key(), *cells, str(est.n_pairs), str(est.n_total)]))
    return "\n".join(lines) + "\n"


def dump_json(obj: dict) -> str:
    """Deterministic JSON serialization (sorted keys, full float precision)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
