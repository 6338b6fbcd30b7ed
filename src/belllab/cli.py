"""Command-line front end: simulate, analyze, sweep, feasibility.

Every command is a pure function of (config file, flags): identical inputs
produce byte-identical output files, for any BELLLAB_THREADS value. Configs
are JSON with a documented schema, validated before any output is written; the
seed is mandatory (``--seed`` overrides the config) and is echoed, together
with the resolved config, into every metadata output.

``main`` returns 0 on success, 2 when a command raises a ``ValueError`` (a
``ConfigError`` or ``AnalysisError`` is one) or an ``OSError``, and 3 when it
raises an ``AssertionError``, an internal invariant violation. Any other
exception is not caught: Python prints its traceback and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import io as bio
from .analysis import chsh_combinations, coupling_feasibility, report, theta_sweep
from .core import CONTEXTS, MAX_ITEMS, AngleAssignment
from .couplings import (
    ContextualModel,
    CouplingModel,
    DeterministicLHVModel,
    PostSelectionModel,
    QuantumSingletModel,
    StochasticLHVModel,
    disjoint_support_model,
    pearle_model,
    rejection_curve,
)
from .errors import ConfigError, section
from .pipeline import window_sweep
from .protocol import (
    EventReadyConfig,
    SourceProtocolConfig,
    run_event_ready,
    run_source_experiment,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_MISSING = inspect.Parameter.empty  # the default of a required field, as of a required parameter


# --- config plumbing --------------------------------------------------------
#
# Every object the CLI builds is read by ``_fields``, one config field per
# parameter of its constructor, of the same name and with the same default.
# The readers below, called as ``read(obj, key, path, default)``, check JSON
# *types* and build field paths. The *range* of each value is checked once, by
# the constructor it feeds; ``errors.section`` re-raises that constructor's
# ValueError as a ConfigError on the section path.


def load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(str(path), f"cannot read config: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(str(path), "top-level config must be a JSON object")
    return cfg


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get(obj: dict, key: str, path: str, default=_MISSING):
    """``obj[key]``, or ``default`` when absent; a missing required field is an error."""
    if not isinstance(obj, dict):
        raise ConfigError(path or key, f"must be an object, got {obj!r}")
    if key in obj:
        return obj[key]
    if default is _MISSING:
        raise ConfigError(_join(path, key), "missing required field")
    return default


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, path: str) -> float:
    # The bound also rejects NaN, and JSON integers too large for a float.
    if not (_is_number(value) and abs(value) <= sys.float_info.max):
        raise ConfigError(path, f"must be a finite number, got {value!r}")
    return float(value)


# A returned default is valid by construction, so only values read from the
# config are type-checked.


def _number(obj: dict, key: str, path: str, default=_MISSING) -> float:
    value = _get(obj, key, path, default)
    return value if value is default else _finite(value, _join(path, key))


def _integer(obj: dict, key: str, path: str, default=_MISSING) -> int:
    value = _get(obj, key, path, default)
    if value is not default and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(_join(path, key), f"must be an integer, got {value!r}")
    return value


def _pair(obj: dict, key: str, path: str, default=_MISSING) -> tuple[float, float]:
    value = _get(obj, key, path, default)
    if value is default:
        return value
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(_join(path, key), f"must be a 2-element array, got {value!r}")
    return (_finite(value[0], _join(path, key)), _finite(value[1], _join(path, key)))


def _choice(obj: dict, key: str, path: str, choices: tuple[str, ...]) -> str:
    value = _get(obj, key, path)
    if value not in choices:
        raise ConfigError(_join(path, key), f"must be one of {choices}, got {value!r}")
    return value


def _path(obj: dict, key: str, path: str) -> Path:
    value = _get(obj, key, path)
    if not isinstance(value, str):
        raise ConfigError(_join(path, key), f"must be a file path, got {value!r}")
    return Path(value)


def _streams(obj: dict, path: str) -> list:
    """The streams of ``timetags_a`` and ``timetags_b``; each file must hold its field's station."""
    streams = []
    for key, station in (("timetags_a", "A"), ("timetags_b", "B")):
        streams.append(bio.read_timetags_csv(_path(obj, key, path)))
        if streams[-1].station != station:
            raise ConfigError(_join(path, key), f"holds station {streams[-1].station}, not {station}")
    return streams


def _array(obj: dict, key: str, path: str, default=_MISSING) -> np.ndarray:
    value = _get(obj, key, path, default)
    if value is default:
        return value
    try:
        array = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(_join(path, key), f"must be a numeric array: {e}") from e
    # A float cast reads true as 1 and "2" as 2; every entry must be a JSON number.
    bad = [v for v in np.asarray(value, dtype=object).flat if not _is_number(v)]
    if bad:
        raise ConfigError(_join(path, key), f"must be a numeric array, got {bad[0]!r}")
    return array


def _context_stack(obj: dict, key: str, path: str, default=_MISSING) -> np.ndarray:
    """The arrays of context keys "00".."11" in ``key``, stacked on leading (2, 2) context axes."""
    spec = _get(obj, key, path, default)
    if not isinstance(spec, dict):
        raise ConfigError(_join(path, key), 'must map context keys "00".."11" to arrays')
    _only(spec, _join(path, key), [s.key() for s in CONTEXTS])
    tables = [_array(spec, s.key(), _join(path, key)) for s in CONTEXTS]
    shapes = [t.shape for t in tables]
    if len(set(shapes)) > 1:
        raise ConfigError(_join(path, key), f"the four context arrays must have one shape, got {shapes}")
    return np.stack(tables).reshape((2, 2) + shapes[0])


def _only(obj, path: str, keys) -> None:
    """Reject the first key of the object at ``path`` that is not in ``keys``: no reader reads it."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in keys:
            raise ConfigError(_join(path, key), "unknown field")


def _fields(build: Callable, read=_array, **readers) -> Callable[[dict, str], object]:
    """A reader of ``build(**fields)`` from the object at ``path``, one field per parameter.

    Parameters are read in declaration order, each by ``read`` unless
    ``readers`` names it, with the parameter's own default; the call's
    ValueError names ``path``. The reader's ``keys`` are the config keys it
    reads: a parameter's name, or the ``key`` of a reader that reads another.
    The caller that owns the section rejects every other key (``_only``).
    """
    params = inspect.signature(build).parameters.values()

    def built(obj: dict, path: str):
        with section(path):
            return build(**{p.name: readers.get(p.name, read)(obj, p.name, path, p.default) for p in params})

    built.keys = tuple(getattr(readers.get(p.name), "key", p.name) for p in params)
    return built


def _default(build: Callable, name: str):
    """The default of ``build``'s parameter ``name``, for a field read outside ``_fields``."""
    return inspect.signature(build).parameters[name].default


def _nested(build: Callable, read, **readers):
    """A reader of a field holding an object that ``_fields(build, read, **readers)`` reads."""
    fields = _fields(build, read, **readers)

    def read_nested(obj: dict, key: str, path: str, default=_MISSING):
        value = _get(obj, key, path, default)
        if value is default:
            return value
        _only(value, _join(path, key), fields.keys)
        return fields(value, _join(path, key))

    return read_nested


_angles = _nested(AngleAssignment, _pair)
_rejection = _nested(rejection_curve, _number, kind=_get)  # absent or null: pearle_model's curve


def _delay(group: str, station: str):
    """A reader of ``group.station``; an absent or null ``group`` shifts nothing."""

    def read(obj: dict, key: str, path: str, default=_MISSING) -> tuple[float, float]:
        spec = _get(obj, group, path, default=None)
        _only(spec, _join(path, group), ("alice", "bob"))
        return _pair({} if spec is None else spec, station, _join(path, group), default)

    read.key = group
    return read


#: Protocol configs by kind, called as ``build(spec, path)``.
_PROTOCOLS = {
    "event_ready": _fields(EventReadyConfig, _number, n_trials=_integer),
    "source": _fields(
        SourceProtocolConfig,
        _number,
        setting_delay_a=_delay("setting_delay", "alice"),
        setting_delay_b=_delay("setting_delay", "bob"),
        outcome_delay_a=_delay("outcome_delay", "alice"),
        outcome_delay_b=_delay("outcome_delay", "bob"),
    ),
}

#: Model builders by family, called as ``build(spec, path)``.
_BUILDERS = {
    "quantum_singlet": _fields(QuantumSingletModel, _number, angles=_angles),
    "deterministic_lhv": _fields(DeterministicLHVModel),
    "stochastic_lhv": _fields(StochasticLHVModel),
    "contextual": _fields(ContextualModel, instrument_weights=_context_stack),
    "post_selection": _fields(PostSelectionModel),
    "pearle": _fields(pearle_model, _integer, angles=_angles, rejection=_rejection),
    "disjoint_support": _fields(disjoint_support_model),
}

MODEL_FAMILIES = tuple(_BUILDERS)

#: Families whose angles a theta sweep can set: those whose builder reads ``angles``.
THETA_FAMILIES = tuple(f for f, b in _BUILDERS.items() if "angles" in b.keys)


def build_model(spec: dict, path: str) -> CouplingModel:
    """Construct a coupling model from its JSON description."""
    build = _BUILDERS[_choice(spec, "family", path, MODEL_FAMILIES)]
    _only(spec, path, ("family", *build.keys))
    return build(spec, path)


def _setup(args, keys: tuple[str, ...], *, seed_default=_MISSING) -> tuple[dict, int, Path | None]:
    """Load the config, resolve the seed (``--seed`` wins) and make the output directory.

    The config may hold ``seed`` and the command's own ``keys``, and no other
    key. The returned config carries the resolved seed, as echoed into metadata.
    """
    cfg = load_config(Path(args.config))
    _only(cfg, "", ("seed", *keys))
    seed = args.seed if args.seed is not None else _integer(cfg, "seed", "", default=seed_default)
    if seed < 0:
        raise ConfigError("seed", f"must be a non-negative integer, got {seed}")
    out = None
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    return {**cfg, "seed": seed}, seed, out


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _document(command: str, seed: int, **fields) -> dict:
    """A JSON output document: versions, command and seed, then ``fields``."""
    return {
        "schema_version": bio.SCHEMA_VERSION,
        "belllab_version": __version__,
        "command": command,
        "seed": seed,
        **fields,
    }


# --- commands ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg, seed, out = _setup(args, ("protocol", "model"))
    proto = _get(cfg, "protocol", "")
    kind = _choice(proto, "kind", "protocol", tuple(_PROTOCOLS))
    keys = ("kind", *_PROTOCOLS[kind].keys)
    if kind == "event_ready":
        keys += _BUILDERS["quantum_singlet"].keys
        _only(cfg, "", ("seed", "protocol"))  # the singlet is read from the protocol section
    _only(proto, "protocol", keys)
    protocol = _PROTOCOLS[kind](proto, "protocol")

    if kind == "event_ready":
        # The singlet's angles and visibility are fields of the protocol section.
        model = _BUILDERS["quantum_singlet"](proto, "protocol")
        with section("protocol"):
            run = run_event_ready(protocol, model, seed)
        bio.write_trials_csv(out / "trials.csv", run, seed)
        names = ["trials.csv"]
    else:
        model = build_model(_get(cfg, "model", ""), "model")
        run = run_source_experiment(protocol, model, seed)
        bio.write_timetags_csv(out / "timetags_a.csv", run.stream_a, seed)
        bio.write_timetags_csv(out / "timetags_b.csv", run.stream_b, seed)
        bio.write_pairs_csv(out / "raw_pairs.csv", run.truth, seed)
        names = ["timetags_a.csv", "timetags_b.csv", "raw_pairs.csv"]
    for name in names:
        print(f"wrote {out / name}")
    counts = dict(run.meta)
    warnings = counts.pop("warnings", [])
    meta = _document("simulate", seed, config=cfg, counts=counts, warnings=warnings)
    _write(out / "metadata.json", bio.dump_json(meta))
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg, seed, out = _setup(args, ("inputs",))
    inputs = _get(cfg, "inputs", "")
    if not isinstance(inputs, dict):
        raise ConfigError("inputs", "must be an object")
    warnings: list[str] = []
    window = None

    if "trials" in inputs:
        _only(inputs, "inputs", ("trials",))
        # The reader keeps ready trials only, and those have nonzero outcomes:
        # post-selection leaves the table as it is.
        trials = bio.read_trials_csv(_path(inputs, "trials", "inputs"))
        raw_table = final_table = trials.to_context_table()
    elif "timetags_a" in inputs or "timetags_b" in inputs:
        # A windowed analysis is one width of the window sweep.
        _only(inputs, "inputs", ("timetags_a", "timetags_b", "window", "raw_pairs"))
        wspec = _get(inputs, "window", "inputs")
        _only(wspec, "inputs.window", ("width_ns", "strategy"))
        width = _integer(wspec, "width_ns", "inputs.window")
        strategy = _get(wspec, "strategy", "inputs.window", default=_default(window_sweep, "strategy"))
        stream_a, stream_b = _streams(inputs, "inputs")
        with section("inputs.window"):
            (point,) = window_sweep(stream_a, stream_b, [width], strategy=strategy)
        final_table = point.table
        window = {"c_by_context": {s.key(): point.summary[s].c for s in CONTEXTS}, "pairing": point.meta}
        if "raw_pairs" in inputs:
            raw_table = bio.read_pairs_csv(_path(inputs, "raw_pairs", "inputs")).to_context_table()
        else:
            raw_table = None
            warnings.append(
                "no raw_pairs input: raw no-signalling block computed from windowed data"
            )
    else:
        raise ConfigError("inputs", 'must contain "trials" or "timetags_a"/"timetags_b"')

    result = report(final_table, raw_table)
    ns = result.no_signalling
    if raw_table is None:
        ns = {**dataclasses.asdict(ns), "raw_from_truth_record": False}
    blocks = {**vars(result), "no_signalling": ns, "warnings": warnings + list(result.warnings)}
    doc = _document(
        "analyze", seed, config=cfg, raw_table=raw_table, final_table=final_table, window=window, **blocks
    )
    _write(out / "report.json", bio.dump_json(doc))
    _write(out / "summary.csv", bio.summary_csv(result.summary, seed))
    return EXIT_OK


def _thetas(spec: dict) -> list[float]:
    grid = _get(spec, "thetas", "sweep")
    if isinstance(grid, dict):
        _only(grid, "sweep.thetas", ("start", "stop", "count"))
        count = _integer(grid, "count", "sweep.thetas")
        if not 1 <= count <= MAX_ITEMS:
            raise ConfigError("sweep.thetas.count", f"must be in [1, {MAX_ITEMS}], got {count}")
        start, stop = _number(grid, "start", "sweep.thetas"), _number(grid, "stop", "sweep.thetas")
        return np.linspace(start, stop, count).tolist()
    if isinstance(grid, list) and grid:
        return [_finite(t, "sweep.thetas") for t in grid]
    raise ConfigError("sweep.thetas", "must be a non-empty array or {start, stop, count}")


def cmd_sweep(args) -> int:
    cfg, seed, out = _setup(args, ("sweep",))
    spec = _get(cfg, "sweep", "")
    kind = _choice(spec, "kind", "sweep", ("theta", "window"))

    if kind == "theta":
        _only(spec, "sweep", ("kind", "model", "thetas", "n_per_point"))
        mspec = _get(spec, "model", "sweep")
        _choice(mspec, "family", "sweep.model", THETA_FAMILIES)
        if "angles" in mspec:
            raise ConfigError("sweep.model.angles", "must be absent: the sweep sets each point's angles")
        thetas = _thetas(spec)
        n_per_point = _integer(spec, "n_per_point", "sweep", default=_default(theta_sweep, "n_trials"))
        with section("sweep"):
            points = theta_sweep(
                # theta is the relative angle at the (0, 0) context
                lambda theta: build_model(
                    {**mspec, "angles": {"alice": [theta, 0.0], "bob": [0.0, 0.0]}}, "sweep.model"
                ),
                thetas,
                n_trials=n_per_point,
                seed=seed,
            )
        name, text, rows = "sweep", bio.theta_sweep_csv(points, seed), points
        counts = {"points": len(points), "n_per_point": n_per_point}
    else:
        _only(spec, "sweep", ("kind", "timetags_a", "timetags_b", "windows_ns", "strategy"))
        stream_a, stream_b = _streams(spec, "sweep")
        windows = _get(spec, "windows_ns", "sweep")
        if not isinstance(windows, list) or any(
            isinstance(w, bool) or not isinstance(w, int) for w in windows
        ):
            raise ConfigError("sweep.windows_ns", f"must be an array of integers, got {windows!r}")
        strategy = _get(spec, "strategy", "sweep", default=_default(window_sweep, "strategy"))
        with section("sweep"):
            points = window_sweep(stream_a, stream_b, windows, strategy=strategy)
        name, text, rows = "windows", bio.window_sweep_csv(points, seed), [p.to_json() for p in points]
        counts = {"points": len(points), "strategy": strategy}

    _write(out / f"{name}.csv", text)
    _write(out / f"{name}.json", bio.dump_json(_document("sweep", seed, points=rows)))
    meta = _document("sweep", seed, config=cfg, counts=counts, warnings=[])
    _write(out / "metadata.json", bio.dump_json(meta))
    return EXIT_OK


def cmd_feasibility(args) -> int:
    cfg, seed, out = _setup(args, ("contexts",), seed_default=0)
    tables = _context_stack(cfg, "contexts", "")
    with section("contexts"):
        result = coupling_feasibility(tables)
    doc = _document(
        "feasibility", seed, chsh_combinations=chsh_combinations(tables), **result.to_json()
    )
    text = bio.dump_json(doc)
    if out is not None:
        _write(out / "feasibility.json", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belllab",
        description="Bell-test simulation and analysis laboratory",
    )
    parser.add_argument("--version", action="version", version=f"belllab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_default: str | None = "."):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=out_default, help=f"output directory (default: {out_default or 'stdout'})")

    common(sub.add_parser("simulate", help="run a protocol simulation"))
    common(sub.add_parser("analyze", help="estimate, test and report"))
    common(sub.add_parser("sweep", help="theta or window sweep"))
    common(sub.add_parser("feasibility", help="joint-coupling LP feasibility"), out_default=None)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "feasibility": cmd_feasibility,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
