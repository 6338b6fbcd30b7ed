"""Command-line front end: simulate, analyze, sweep, feasibility.

Every command is a pure function of (config file, flags): identical inputs
produce byte-identical output files, for any BELLLAB_THREADS value. Configs
are JSON with a documented schema, validated before any output is written; the
seed is mandatory (``--seed`` overrides the config) and is echoed, together
with the resolved config, into every metadata output.

Exit codes: 0 success, 2 input/config error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import io as bio
from .analysis import (
    AnalysisError,
    HypothesisReport,
    chsh_combinations,
    coupling_feasibility,
    lhv_pvalue,
    nosignalling_test,
    theta_sweep,
)
from .core import CONTEXTS, MAX_ITEMS, AngleAssignment, ContextTable, SettingPair, chsh, estimate
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
from .errors import BellLabError, ConfigError
from .pipeline import CoincidencePolicy, match_coincidences, postselect, window_sweep
from .protocol import (
    EventReadyConfig,
    SourceProtocolConfig,
    run_event_ready,
    run_source_experiment,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_MISSING = object()


# --- config plumbing --------------------------------------------------------
#
# The helpers below check JSON *types* and build field paths. The *range* of
# each value is checked once, by the constructor it feeds; ``_section``
# re-raises that constructor's ValueError as a ConfigError on the section path.


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


@contextmanager
def _section(path: str):
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def _get(obj: dict, key: str, path: str, default=_MISSING):
    """``obj[key]``, or ``default`` when absent; a missing required field is an error."""
    if not isinstance(obj, dict):
        raise ConfigError(path or key, f"must be an object, got {obj!r}")
    if key in obj:
        return obj[key]
    if default is _MISSING:
        raise ConfigError(_join(path, key), "missing required field")
    return default


def _finite(value, path: str) -> float:
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # The bound also rejects NaN, and JSON integers too large for a float.
    if not (is_number and abs(value) <= sys.float_info.max):
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


def _array(obj: dict, key: str, path: str) -> np.ndarray:
    value = _get(obj, key, path)
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ConfigError(_join(path, key), f"must be a numeric array: {e}") from e


def _context_arrays(obj: dict, key: str, path: str) -> dict[SettingPair, np.ndarray]:
    """A map of context keys "00".."11" to numeric arrays."""
    spec = _get(obj, key, path)
    if not isinstance(spec, dict):
        raise ConfigError(_join(path, key), 'must map context keys "00".."11" to arrays')
    return {s: _array(spec, s.key(), _join(path, key)) for s in CONTEXTS}


def _angles(obj: dict, path: str) -> AngleAssignment:
    spec = _get(obj, "angles", path)
    path = _join(path, "angles")
    return AngleAssignment(alice=_pair(spec, "alice", path), bob=_pair(spec, "bob", path))


def _rejection(obj: dict, path: str) -> Callable[[np.ndarray], np.ndarray] | None:
    spec = _get(obj, "rejection", path, default=None)
    if spec is None:
        return None  # pearle_model's default curve
    path = _join(path, "rejection")
    with _section(path):
        return rejection_curve(
            _get(spec, "kind", path),
            max_reject=_number(spec, "max_reject", path, default=0.8),
            exponent=_number(spec, "exponent", path, default=1.0),
        )


MODEL_FAMILIES = (
    "quantum_singlet",
    "deterministic_lhv",
    "stochastic_lhv",
    "contextual",
    "post_selection",
    "pearle",
    "disjoint_support",
)

#: Families whose angles a theta sweep can set.
THETA_FAMILIES = ("quantum_singlet", "pearle")


def build_model(spec: dict, path: str, angles: AngleAssignment | None = None) -> CouplingModel:
    """Construct a coupling model from its JSON description.

    ``angles`` replaces the spec's own ``angles`` field; theta sweeps use it
    to set the relative angle per point.
    """
    family = _choice(spec, "family", path, MODEL_FAMILIES)
    with _section(path):
        if family == "quantum_singlet":
            return QuantumSingletModel(
                angles=angles or _angles(spec, path),
                visibility=_number(spec, "visibility", path, default=1.0),
            )
        if family == "deterministic_lhv":
            return DeterministicLHVModel(
                weights=_array(spec, "weights", path),
                alice=_array(spec, "alice", path),
                bob=_array(spec, "bob", path),
            )
        if family == "stochastic_lhv":
            return StochasticLHVModel(
                weights=_array(spec, "weights", path),
                alice_plus=_array(spec, "alice_plus", path),
                bob_plus=_array(spec, "bob_plus", path),
            )
        if family == "contextual":
            tables = list(_context_arrays(spec, "instrument_weights", path).values())
            return ContextualModel(
                source_weights=_array(spec, "source_weights", path),
                instrument_weights=np.stack(tables).reshape((2, 2) + tables[0].shape),
                alice=_array(spec, "alice", path),
                bob=_array(spec, "bob", path),
            )
        if family == "post_selection":
            return PostSelectionModel(
                source_weights=_array(spec, "source_weights", path),
                alice_instrument=_array(spec, "alice_instrument", path),
                bob_instrument=_array(spec, "bob_instrument", path),
                alice=_array(spec, "alice", path),
                bob=_array(spec, "bob", path),
            )
        if family == "pearle":
            return pearle_model(
                angles=angles or _angles(spec, path),
                rejection=_rejection(spec, path),
                bins=_integer(spec, "bins", path, default=720),
                threshold_bins=_integer(spec, "threshold_bins", path, default=64),
            )
        return disjoint_support_model()


def _setup(args, *, seed_default=_MISSING) -> tuple[dict, int, Path | None]:
    """Load the config, resolve the seed (``--seed`` wins) and make the output directory.

    The returned config carries the resolved seed, as echoed into metadata.
    """
    cfg = load_config(Path(args.config))
    seed = args.seed if args.seed is not None else _integer(cfg, "seed", "", default=seed_default)
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
    cfg, seed, out = _setup(args)
    proto = _get(cfg, "protocol", "")
    kind = _choice(proto, "kind", "protocol", ("event_ready", "source"))

    if kind == "event_ready":
        with _section("protocol"):
            ev = EventReadyConfig(
                herald_prob=_number(proto, "herald_prob", "protocol"),
                visibility=_number(proto, "visibility", "protocol", default=1.0),
                fidelity_a=_number(proto, "fidelity_a", "protocol", default=1.0),
                fidelity_b=_number(proto, "fidelity_b", "protocol", default=1.0),
            )
            n_trials = _integer(proto, "n_trials", "protocol")
            run = run_event_ready(ev, _angles(proto, "protocol"), n_trials, seed)
        bio.write_trials_csv(out / "trials.csv", run, seed)
        print(f"wrote {out / 'trials.csv'}")
        meta = _document("simulate", seed, config=cfg, counts=run.metadata, warnings=[])
        _write(out / "metadata.json", bio.dump_json(meta))
        return EXIT_OK

    def delay(key: str, station: str) -> tuple[float, float]:
        spec = _get(proto, key, "protocol", default=None)  # absent or null: no delays
        return _pair({} if spec is None else spec, station, f"protocol.{key}", default=(0.0, 0.0))

    with _section("protocol"):
        src = SourceProtocolConfig(
            pair_rate=_number(proto, "pair_rate", "protocol"),
            duration=_number(proto, "duration", "protocol"),
            jitter_sd=_number(proto, "jitter_sd", "protocol", default=0.0),
            dark_rate=_number(proto, "dark_rate", "protocol", default=0.0),
            setting_delay_a=delay("setting_delay", "alice"),
            setting_delay_b=delay("setting_delay", "bob"),
            outcome_delay_a=delay("outcome_delay", "alice"),
            outcome_delay_b=delay("outcome_delay", "bob"),
        )
    model = build_model(_get(cfg, "model", ""), "model")
    run = run_source_experiment(src, model, seed)
    bio.write_timetags_csv(out / "timetags_a.csv", run.stream_a, seed)
    bio.write_timetags_csv(out / "timetags_b.csv", run.stream_b, seed)
    bio.write_pairs_csv(out / "raw_pairs.csv", run.truth, seed)
    for name in ("timetags_a.csv", "timetags_b.csv", "raw_pairs.csv"):
        print(f"wrote {out / name}")
    counts = dict(run.metadata)
    warnings = counts.pop("warnings", [])
    meta = _document("simulate", seed, config=cfg, counts=counts, warnings=warnings)
    _write(out / "metadata.json", bio.dump_json(meta))
    return EXIT_OK


def _orient_positive(table: ContextTable) -> ContextTable:
    """Relabel Alice's outcome channels (+1 <-> -1), flipping the sign of S."""
    return ContextTable(table.counts[:, :, [1, 0, 2], :])


def _hypothesis_blocks(final_table: ContextTable, warnings: list[str]) -> tuple[dict | None, dict | None]:
    summary = estimate(final_table)
    try:
        primary = lhv_pvalue(summary).to_json()
    except AnalysisError as e:
        warnings.append(f"hypothesis test skipped: {e}")
        return None, None
    s = chsh(summary)
    oriented = estimate(_orient_positive(final_table)) if (s is not None and s < 0) else summary
    rep = lhv_pvalue(oriented)
    # The orientation is chosen after seeing the data: union bound over the
    # two outcome relabellings keeps the tail bound valid.
    two_sided = HypothesisReport(
        s_hat=rep.s_hat,
        n=rep.n,
        p_value=min(1.0, 2.0 * rep.p_value),
        method="hoeffding-two-sided",
    )
    return primary, two_sided.to_json()


def cmd_analyze(args) -> int:
    cfg, seed, out = _setup(args)
    inputs = _get(cfg, "inputs", "")
    if not isinstance(inputs, dict):
        raise ConfigError("inputs", "must be an object")
    warnings: list[str] = []
    window_block = None

    if "trials" in inputs:
        # The reader keeps ready trials only, and those have nonzero outcomes:
        # post-selection leaves the table as it is.
        raw_table = final_table = ContextTable.from_arrays(
            *bio.read_trials_csv(_path(inputs, "trials", "inputs"))
        )
    elif "timetags_a" in inputs or "timetags_b" in inputs:
        stream_a = bio.read_timetags_csv(_path(inputs, "timetags_a", "inputs"))
        stream_b = bio.read_timetags_csv(_path(inputs, "timetags_b", "inputs"))
        wspec = _get(inputs, "window", "inputs")
        with _section("inputs.window"):
            policy = CoincidencePolicy(
                window_ns=_integer(wspec, "width_ns", "inputs.window"),
                strategy=_get(wspec, "strategy", "inputs.window", default="lattice"),
            )
        pairs = match_coincidences(stream_a, stream_b, policy)
        final, c_table = postselect(pairs)
        final_table = final.to_context_table()
        window_block = {
            "c_by_context": {s.key(): c_table[s] for s in CONTEXTS},
            "pairing": final.meta,
        }
        if "raw_pairs" in inputs:
            raw_table = bio.read_pairs_csv(_path(inputs, "raw_pairs", "inputs")).to_context_table()
        else:
            raw_table = None
            warnings.append(
                "no raw_pairs input: raw no-signalling block computed from windowed data"
            )
    else:
        raise ConfigError("inputs", 'must contain "trials" or "timetags_a"/"timetags_b"')

    summary = estimate(final_table)
    s = chsh(summary)
    if s is None:
        starved = [k.key() for k in CONTEXTS if summary[k].e_ab is None]
        warnings.append(f"starved contexts (undefined expectations): {starved}")
    hypothesis, hypothesis_abs = _hypothesis_blocks(final_table, warnings)
    ns = nosignalling_test(raw_table if raw_table is not None else final_table, final_table)
    ns_json = ns.to_json()
    if raw_table is None:
        ns_json["raw_from_truth_record"] = False

    report = _document(
        "analyze",
        seed,
        config=cfg,
        summary=summary.to_json(),
        chsh=s,
        chsh_abs=None if s is None else abs(s),
        hypothesis=hypothesis,
        hypothesis_abs=hypothesis_abs,
        no_signalling=ns_json,
        raw_table=raw_table.to_json() if raw_table is not None else None,
        final_table=final_table.to_json(),
        window=window_block,
        warnings=warnings,
    )
    _write(out / "report.json", bio.dump_json(report))
    if args.format == "csv":
        _write(out / "summary.csv", bio.summary_csv(summary, seed))
    return EXIT_OK


def _thetas(spec: dict) -> list[float]:
    grid = _get(spec, "thetas", "sweep")
    if isinstance(grid, dict):
        count = _integer(grid, "count", "sweep.thetas")
        if not 1 <= count <= MAX_ITEMS:
            raise ConfigError("sweep.thetas.count", f"must be in [1, {MAX_ITEMS}], got {count}")
        start, stop = _number(grid, "start", "sweep.thetas"), _number(grid, "stop", "sweep.thetas")
        return np.linspace(start, stop, count).tolist()
    if isinstance(grid, list) and grid:
        return [_finite(t, "sweep.thetas") for t in grid]
    raise ConfigError("sweep.thetas", "must be a non-empty array or {start, stop, count}")


def cmd_sweep(args) -> int:
    cfg, seed, out = _setup(args)
    spec = _get(cfg, "sweep", "")
    kind = _choice(spec, "kind", "sweep", ("theta", "window"))

    if kind == "theta":
        mspec = _get(spec, "model", "sweep")
        _choice(mspec, "family", "sweep.model", THETA_FAMILIES)
        thetas = _thetas(spec)
        n_per_point = _integer(spec, "n_per_point", "sweep", default=None)
        with _section("sweep"):
            points = theta_sweep(
                # theta is the relative angle at the (0, 0) context
                lambda theta: build_model(
                    mspec, "sweep.model", AngleAssignment(alice=(theta, 0.0), bob=(0.0, 0.0))
                ),
                thetas,
                n_trials=n_per_point,
                seed=seed,
            )
        name, text = "sweep", bio.theta_sweep_csv(points, seed)
        counts = {"points": len(points), "n_per_point": n_per_point}
    else:
        stream_a = bio.read_timetags_csv(_path(spec, "timetags_a", "sweep"))
        stream_b = bio.read_timetags_csv(_path(spec, "timetags_b", "sweep"))
        windows = _get(spec, "windows_ns", "sweep")
        if not isinstance(windows, list) or any(
            isinstance(w, bool) or not isinstance(w, int) for w in windows
        ):
            raise ConfigError("sweep.windows_ns", f"must be an array of integers, got {windows!r}")
        strategy = _get(spec, "strategy", "sweep", default="lattice")
        with _section("sweep"):
            points = window_sweep(stream_a, stream_b, windows, strategy=strategy)
        name, text = "windows", bio.window_sweep_csv(points, seed)
        counts = {"points": len(points), "strategy": strategy}

    _write(out / f"{name}.csv", text)
    if args.format == "json":
        points_json = [p.to_json() for p in points]
        doc = {"schema_version": bio.SCHEMA_VERSION, "seed": seed, "points": points_json}
        _write(out / f"{name}.json", bio.dump_json(doc))
    meta = _document("sweep", seed, config=cfg, counts=counts, warnings=[])
    _write(out / "metadata.json", bio.dump_json(meta))
    return EXIT_OK


def cmd_feasibility(args) -> int:
    cfg, seed, out = _setup(args, seed_default=0)
    tables = _context_arrays(cfg, "contexts", "")
    with _section("contexts"):
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

    def common(p: argparse.ArgumentParser, *, default_format: str, out_required: bool = True):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if out_required:
            p.add_argument("--out", default=".", help="output directory (default: .)")
        else:
            p.add_argument("--out", default=None, help="output directory (default: stdout)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=default_format,
            help=f"additional output format (default: {default_format})",
        )

    common(sub.add_parser("simulate", help="run a protocol simulation"), default_format="csv")
    common(sub.add_parser("analyze", help="estimate, test and report"), default_format="json")
    common(sub.add_parser("sweep", help="theta or window sweep"), default_format="csv")
    common(
        sub.add_parser("feasibility", help="joint-coupling LP feasibility"),
        default_format="json",
        out_required=False,
    )
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
    except (BellLabError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
