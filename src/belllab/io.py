"""File formats: trials CSV, time-tag CSV, pairs CSV, sweep CSV, report JSON.

Every output file embeds a schema-version field and the resolved seed: CSVs
carry them in a leading ``#`` comment line, JSON documents as top-level
fields. All writers are deterministic (sorted JSON keys, integer columns,
repr-precision floats, no timestamps), so identical inputs produce
byte-identical files.

Column schemas:

* trials CSV: ``trial_id,x,y,a,b,ready`` (outcomes +1/-1/0, ready 0/1)
* time-tag CSV: ``time_ns,setting,outcome`` (outcome +1/-1)
* pairs CSV: ``x,y,a,b`` (settings 0/1 or -1 when unknown)
* theta sweep CSV: ``theta_rad,E,stderr,n`` (empty E for starved points)
* window sweep CSV: per-width S, per-context E, retention C, pair counts
* summary CSV: ``context,e_ab,e_a,e_b,c,n_pairs,n_total`` (empty when undefined)
"""

from __future__ import annotations

import io as _io
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


def _int_csv(columns: dict[str, np.ndarray]) -> str:
    buf = _io.StringIO()
    buf.write(",".join(columns) + "\n")
    stacked = np.column_stack([np.asarray(v, dtype=np.int64) for v in columns.values()])
    np.savetxt(buf, stacked, fmt="%d", delimiter=",")
    return buf.getvalue()


def _read_int_csv(path: Path, kind: str, columns: Sequence[str]) -> tuple[dict, np.ndarray]:
    text = path.read_text()
    lines = text.splitlines()
    if not lines:
        raise ConfigError(str(path), "empty file")
    header = _parse_header(lines[0], str(path))
    if header.get("kind") != kind:
        raise ConfigError(str(path), f"expected kind={kind}, got {header.get('kind')!r}")
    if len(lines) < 2 or lines[1].split(",") != list(columns):
        raise ConfigError(str(path), f"expected columns {','.join(columns)}")
    body = "\n".join(lines[2:])
    if body.strip():
        data = np.loadtxt(_io.StringIO(body), dtype=np.int64, delimiter=",", ndmin=2)
    else:
        data = np.zeros((0, len(columns)), dtype=np.int64)
    if data.shape[1] != len(columns):
        raise ConfigError(str(path), f"expected {len(columns)} columns")
    return header, data


def write_trials_csv(path: Path, run: EventReadyRun, seed: int) -> None:
    n = len(run)
    body = _int_csv(
        {
            "trial_id": np.arange(n),
            "x": run.x,
            "y": run.y,
            "a": run.a,
            "b": run.b,
            "ready": np.ones(n, dtype=np.int64),
        }
    )
    path.write_text(_header("trials", seed) + "\n" + body)


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
    body = _int_csv(
        {"time_ns": stream.times, "setting": stream.settings, "outcome": stream.outcomes}
    )
    path.write_text(_header("timetags", seed, station=stream.station) + "\n" + body)


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
    body = _int_csv({"x": pairs.x, "y": pairs.y, "a": pairs.a, "b": pairs.b})
    path.write_text(_header("pairs", seed) + "\n" + body)


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
