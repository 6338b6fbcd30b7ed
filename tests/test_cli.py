"""End-to-end CLI behavior: formats, determinism, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from belllab import io as bio
from belllab.cli import main
from belllab.core import AngleAssignment, SettingPair
from belllab.couplings import pearle_model, rejection_curve
from belllab.protocol import RawEventStream

SQRT2 = math.sqrt(2)
REPO = Path(__file__).resolve().parents[1]

CANONICAL_ANGLES_JSON = {
    "alice": [0.0, 1.5707963267948966],
    "bob": [0.7853981633974483, -0.7853981633974483],
}


def write_config(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def event_ready_config(n_trials, seed=7, **overrides):
    proto = {
        "kind": "event_ready",
        "n_trials": n_trials,
        "herald_prob": 1.0,
        "visibility": 1.0,
        "fidelity_a": 1.0,
        "fidelity_b": 1.0,
        "angles": CANONICAL_ANGLES_JSON,
    }
    proto.update(overrides)
    return {"seed": seed, "protocol": proto}


class TestSimulate:
    def test_event_ready_row_count_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", event_ready_config(100, seed=7))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        t1 = (tmp_path / "r1" / "trials.csv").read_bytes()
        t2 = (tmp_path / "r2" / "trials.csv").read_bytes()
        assert t1 == t2
        assert (tmp_path / "r1" / "metadata.json").read_bytes() == (
            tmp_path / "r2" / "metadata.json"
        ).read_bytes()
        lines = t1.decode().strip().splitlines()
        assert len(lines) == 2 + 100  # header comment + column header + rows

    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json", event_ready_config(70_000, seed=3))
        monkeypatch.setenv("BELLLAB_THREADS", "1")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "w1")])
        monkeypatch.setenv("BELLLAB_THREADS", "6")
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "w6")])
        assert (tmp_path / "w1" / "trials.csv").read_bytes() == (
            tmp_path / "w6" / "trials.csv"
        ).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", event_ready_config(50, seed=7))
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trials.csv").read_bytes() != (
            tmp_path / "b" / "trials.csv"
        ).read_bytes()
        meta = json.loads((tmp_path / "b" / "metadata.json").read_text())
        assert meta["seed"] == 8

    def test_source_dark_counts_in_metadata(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "seed": 5,
                "protocol": {
                    "kind": "source",
                    "pair_rate": 1000.0,
                    "duration": 1.0,
                    "dark_rate": 200.0,
                },
                "model": {
                    "family": "quantum_singlet",
                    "visibility": 1.0,
                    "angles": CANONICAL_ANGLES_JSON,
                },
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        meta = json.loads((tmp_path / "s" / "metadata.json").read_text())
        for key in ("dark_a", "dark_b"):
            # Poisson(200) at desk scale.
            assert meta["counts"][key] == pytest.approx(200, abs=5 * math.sqrt(200))
        assert (tmp_path / "s" / "raw_pairs.csv").exists()
        stream = bio.read_timetags_csv(tmp_path / "s" / "timetags_a.csv")
        assert len(stream) == meta["counts"]["events_a"]

    def test_invalid_fidelity_exits_two_naming_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", event_ready_config(10, fidelity_a=1.2)
        )
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "fidelity_a" in err

    def test_missing_seed_exits_two(self, tmp_path, capsys):
        cfg_obj = event_ready_config(10)
        del cfg_obj["seed"]
        cfg = write_config(tmp_path / "c.json", cfg_obj)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_json_syntax_error_is_line_precise(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{\n  "seed": 1,\n  "protocol": }\n')
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "line 3" in capsys.readouterr().err


class TestAnalyze:
    def test_canonical_singlet_full_scale(self, tmp_path):
        # One full-size run: n = 1e6 per context, |S| within 0.01 of 2*sqrt(2).
        cfg = write_config(tmp_path / "sim.json", event_ready_config(4_000_000, seed=12))
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        acfg = write_config(
            tmp_path / "an.json",
            {"seed": 12, "inputs": {"trials": str(tmp_path / "trials.csv")}},
        )
        assert main(["analyze", "--config", acfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["chsh_abs"] - 2 * SQRT2) < 0.01
        assert report["hypothesis"]["p_value"] == 1.0  # S is negative here
        assert report["hypothesis_abs"]["p_value"] < 1e-6
        for ctx, est in report["summary"].items():
            assert est["n_total"] == pytest.approx(1_000_000, rel=0.01)

    def test_lhv_trials_give_p_one(self, tmp_path):
        # A deterministic local model cannot push S_hat beyond 2.
        cfg = write_config(
            tmp_path / "sim.json",
            {
                "seed": 4,
                "protocol": {
                    "kind": "source",
                    "pair_rate": 40_000.0,
                    "duration": 1.0,
                },
                "model": {
                    "family": "deterministic_lhv",
                    "weights": [0.5, 0.5],
                    "alice": [[1, -1], [1, 1]],
                    "bob": [[-1, 1], [-1, -1]],
                },
            },
        )
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        acfg = write_config(
            tmp_path / "an.json",
            {
                "seed": 4,
                "inputs": {
                    "timetags_a": str(tmp_path / "timetags_a.csv"),
                    "timetags_b": str(tmp_path / "timetags_b.csv"),
                    "raw_pairs": str(tmp_path / "raw_pairs.csv"),
                    "window": {"width_ns": 20, "strategy": "lattice"},
                },
            },
        )
        assert main(["analyze", "--config", acfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["hypothesis"]["p_value"] == 1.0
        assert abs(report["chsh"]) <= 2.0 + 0.05

    def test_postselection_fixture_shows_raw_pass_final_fire(self, tmp_path):
        cfg = json.loads((REPO / "configs" / "pearle_anomaly_source.json").read_text())
        cfg["protocol"]["pair_rate"] = 50_000.0
        sim = write_config(tmp_path / "sim.json", cfg)
        main(["simulate", "--config", sim, "--out", str(tmp_path)])
        acfg = write_config(
            tmp_path / "an.json",
            {
                "seed": cfg["seed"],
                "inputs": {
                    "timetags_a": str(tmp_path / "timetags_a.csv"),
                    "timetags_b": str(tmp_path / "timetags_b.csv"),
                    "raw_pairs": str(tmp_path / "raw_pairs.csv"),
                    "window": {"width_ns": 15, "strategy": "lattice"},
                },
            },
        )
        assert main(["analyze", "--config", acfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["no_signalling"]["raw_block_p"] > 0.05
        assert report["no_signalling"]["final_block_p"] < 0.01

    def test_starved_context_warns_but_exits_zero(self, tmp_path):
        # Only one context present: the report flags it, exit stays 0.
        run_lines = [
            "# belllab schema_version=1 kind=trials seed=1",
            "trial_id,x,y,a,b,ready",
            "0,0,0,1,-1,1",
            "1,0,0,1,1,1",
        ]
        trials = tmp_path / "trials.csv"
        trials.write_text("\n".join(run_lines) + "\n")
        acfg = write_config(
            tmp_path / "an.json", {"seed": 1, "inputs": {"trials": str(trials)}}
        )
        assert main(["analyze", "--config", acfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["chsh"] is None
        assert report["hypothesis"] is None
        assert report["warnings"]

    def test_report_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "sim.json", event_ready_config(5000, seed=2))
        main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        acfg = write_config(
            tmp_path / "an.json",
            {"seed": 2, "inputs": {"trials": str(tmp_path / "trials.csv")}},
        )
        main(["analyze", "--config", acfg, "--out", str(tmp_path / "r1")])
        main(["analyze", "--config", acfg, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()


class TestSweep:
    def test_theta_sweep_curve_close_to_cosine(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "seed": 6,
                "sweep": {
                    "kind": "theta",
                    "model": {"family": "quantum_singlet", "visibility": 1.0},
                    "thetas": {"start": 0.0, "stop": 2 * math.pi, "count": 16},
                    "n_per_point": 50_000,
                },
            },
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[1] == "theta_rad,E,stderr,n"
        worst = 0.0
        for line in lines[2:]:
            theta, e, stderr, n = line.split(",")
            worst = max(worst, abs(float(e) + math.cos(float(theta))))
        assert worst < 0.015

    def test_window_sweep_runs_on_stream_files(self, tmp_path):
        sim = write_config(
            tmp_path / "sim.json",
            {
                "seed": 9,
                "protocol": {
                    "kind": "source",
                    "pair_rate": 20_000.0,
                    "duration": 1.0,
                    "jitter_sd": 2.0,
                    "setting_delay": {"alice": [0.0, 4.0], "bob": [0.0, 6.0]},
                    "outcome_delay": {"alice": [0.0, 8.0], "bob": [0.0, 8.0]},
                },
                "model": {
                    "family": "pearle",
                    "angles": CANONICAL_ANGLES_JSON,
                },
            },
        )
        main(["simulate", "--config", sim, "--out", str(tmp_path)])
        cfg = write_config(
            tmp_path / "w.json",
            {
                "seed": 9,
                "sweep": {
                    "kind": "window",
                    "timetags_a": str(tmp_path / "timetags_a.csv"),
                    "timetags_b": str(tmp_path / "timetags_b.csv"),
                    "windows_ns": [4, 15, 60],
                },
            },
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "windows.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 3
        s_values = [float(line.split(",")[1]) for line in lines[2:]]
        assert max(s_values) - min(s_values) > 0.1

    def test_empty_grid_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "seed": 1,
                "sweep": {
                    "kind": "theta",
                    "model": {"family": "quantum_singlet"},
                    "thetas": [],
                },
            },
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def source_config(model=None, **overrides):
    proto = {"kind": "source", "pair_rate": 10.0, "duration": 1.0}
    proto.update(overrides)
    model = model or {"family": "quantum_singlet", "angles": CANONICAL_ANGLES_JSON}
    return {"seed": 1, "protocol": proto, "model": model}


def text_file(path, text):
    path.write_text(text)
    return str(path)


def stream_inputs(tmp_path, window, **files):
    """Analyze config on two one-event streams; ``files`` are input files given as text."""
    inputs = {"window": window}
    for key, station in (("timetags_a", "A"), ("timetags_b", "B")):
        stream = RawEventStream(station, np.array([5]), np.array([0]), np.array([1]))
        bio.write_timetags_csv(tmp_path / f"{key}.csv", stream, seed=1)
        inputs[key] = str(tmp_path / f"{key}.csv")
    for key, text in files.items():
        inputs[key] = text_file(tmp_path / f"{key}.csv", text)
    return {"seed": 1, "inputs": inputs}


PEARLE_MAX_REJECT_1 = {
    "family": "pearle",
    "angles": CANONICAL_ANGLES_JSON,
    "rejection": {"kind": "linear", "max_reject": 1.0},
}
PEARLE_EXPONENT_0 = {
    "family": "pearle",
    "angles": CANONICAL_ANGLES_JSON,
    "rejection": {"kind": "power", "exponent": 0},
}
LATTICE_15 = {"width_ns": 15}
BAD_TAGS = "# belllab schema_version=1 kind=timetags seed=1 station=A\ntime_ns,setting,outcome\n5,257,1\n"
BAD_PAIRS = "# belllab schema_version=1 kind=pairs seed=1\nx,y,a,b\n0,0,255,1\n"
BAD_TRIALS = "# belllab schema_version=1 kind=trials seed=1\ntrial_id,x,y,a,b,ready\n0,0,0,0,1,1\n"
FLOAT_TRIALS = "# belllab schema_version=1 kind=trials seed=1\ntrial_id,x,y,a,b,ready\n0,0,0,1.0,1,1\n"
WIDE_TAGS = "# belllab schema_version=1 kind=timetags seed=1 station=A\ntime_ns,setting,outcome\n9223372036854775808,0,1\n"
# Response tables holding one entry that an int8 cast turns into a valid
# response (1.5 -> 1, 255 -> -1), one per table-driven family.
LHV_NARROWED = {"family": "deterministic_lhv", "weights": [1.0], "alice": [[1.5], [255]], "bob": [[1], [1]]}
CONTEXTUAL_NARROWED = {
    "family": "contextual",
    "source_weights": [[1.0]],
    "instrument_weights": {k: [[1.0]] for k in ("00", "01", "10", "11")},
    "alice": [[[1]], [[1]]],
    "bob": [[[255]], [[1]]],
}
POST_SELECTION_NARROWED = {
    "family": "post_selection",
    "source_weights": [[1.0]],
    "alice_instrument": [[1.0], [1.0]],
    "bob_instrument": [[1.0], [1.0]],
    "alice": [[[1]], [[-1.5]]],
    "bob": [[[1]], [[1]]],
}

#: (command, config builder, text the error must carry: the field path first).
MALFORMED = {
    "nan_setting_delay": (
        "simulate",
        lambda tmp: source_config(setting_delay={"alice": [math.nan, 0.0]}),
        "protocol.setting_delay.alice: must be a finite number",
    ),
    "bool_outcome_delay": (
        "simulate",
        lambda tmp: source_config(outcome_delay={"bob": [True, 3]}),
        "protocol.outcome_delay.bob: must be a finite number",
    ),
    "number_setting_delay": (
        "simulate",
        lambda tmp: source_config(setting_delay=0),
        "protocol.setting_delay: must be an object",
    ),
    "missing_protocol": ("simulate", lambda tmp: {"seed": 1}, "error: protocol: missing required field"),
    "herald_prob_zero": (
        "simulate",
        lambda tmp: event_ready_config(10, herald_prob=0),
        "protocol: herald_prob",
    ),
    "herald_prob_tiny": (
        "simulate",
        lambda tmp: event_ready_config(10, herald_prob=1e-300),
        "protocol: herald_prob",
    ),
    "max_reject_one": (
        "simulate",
        lambda tmp: source_config(PEARLE_MAX_REJECT_1),
        "model.rejection: max_reject",
    ),
    "exponent_zero": ("simulate", lambda tmp: source_config(PEARLE_EXPONENT_0), "model.rejection: exponent"),
    "duration_zero": ("simulate", lambda tmp: source_config(duration=0), "protocol: duration"),
    "huge_integer_rate": (
        "simulate",
        lambda tmp: source_config(pair_rate=10**400),
        "protocol.pair_rate: must be a finite number",
    ),
    "negative_dark_rate": ("simulate", lambda tmp: source_config(dark_rate=-1.0), "protocol: dark_rate"),
    "width_zero": ("analyze", lambda tmp: stream_inputs(tmp, {"width_ns": 0}), "inputs.window: window"),
    "theta_sweep_lhv": (
        "sweep",
        lambda tmp: {
            "seed": 1,
            "sweep": {"kind": "theta", "model": {"family": "deterministic_lhv"}, "thetas": [0.0]},
        },
        "sweep.model.family",
    ),
    "timetags_setting_257": (
        "analyze",
        lambda tmp: stream_inputs(tmp, LATTICE_15, timetags_a=BAD_TAGS),
        "timetags_a.csv: stream settings",
    ),
    "pairs_outcome_255": (
        "analyze",
        lambda tmp: stream_inputs(tmp, LATTICE_15, raw_pairs=BAD_PAIRS),
        "raw_pairs.csv: outcomes",
    ),
    "lhv_table_narrowed": ("simulate", lambda tmp: source_config(LHV_NARROWED), "model: alice responses"),
    "contextual_table_narrowed": (
        "simulate",
        lambda tmp: source_config(CONTEXTUAL_NARROWED),
        "model: bob responses",
    ),
    "post_selection_table_narrowed": (
        "simulate",
        lambda tmp: source_config(POST_SELECTION_NARROWED),
        "model: alice responses",
    ),
    "trials_float_cell": (
        "analyze",
        lambda tmp: {"seed": 1, "inputs": {"trials": text_file(tmp / "trials.csv", FLOAT_TRIALS)}},
        "trials.csv: could not convert string '1.0'",
    ),
    "timetags_cell_above_int64": (
        "analyze",
        lambda tmp: stream_inputs(tmp, LATTICE_15, timetags_a=WIDE_TAGS),
        "timetags_a.csv: could not convert string '9223372036854775808'",
    ),
    # The size cap is checked before anything is allocated.
    "pair_rate_above_cap": ("simulate", lambda tmp: source_config(pair_rate=1e15), "protocol: pair_rate * duration"),
    "dark_rate_above_cap": ("simulate", lambda tmp: source_config(dark_rate=1e15), "protocol: dark_rate * duration"),
    "duration_above_int64_ns": ("simulate", lambda tmp: source_config(duration=1e300), "protocol: duration"),
    "n_trials_above_cap": ("simulate", lambda tmp: event_ready_config(10**15), "protocol: n_trials"),
    "pearle_bins_above_cap": (
        "simulate",
        lambda tmp: source_config({"family": "pearle", "angles": CANONICAL_ANGLES_JSON, "bins": 10**6}),
        "model: bins",
    ),
    "n_per_point_above_cap": (
        "sweep",
        lambda tmp: {
            "seed": 1,
            "sweep": {
                "kind": "theta",
                "model": {"family": "quantum_singlet"},
                "thetas": [0.0],
                "n_per_point": 10**15,
            },
        },
        "sweep: Monte-Carlo sweeps need 1 <= n_trials <= 100000000",
    ),
    "ready_trial_zero_outcome": (
        "analyze",
        lambda tmp: {"seed": 1, "inputs": {"trials": text_file(tmp / "trials.csv", BAD_TRIALS)}},
        "trials.csv: data row 1",
    ),
}


class TestMalformedConfigs:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_two_naming_the_field(self, tmp_path, capsys, case):
        command, build, expected = MALFORMED[case]
        cfg = write_config(tmp_path / "c.json", build(tmp_path))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert expected in capsys.readouterr().err

    def test_pearle_theta_sweep_takes_its_angles_from_the_sweep(self, tmp_path):
        rejection = {"kind": "power", "max_reject": 0.5, "exponent": 2.0}
        model = {"family": "pearle", "bins": 90, "threshold_bins": 8, "rejection": rejection}
        thetas = [0.0, 0.7, 2.0]
        cfg = write_config(
            tmp_path / "c.json",
            {"seed": 1, "sweep": {"kind": "theta", "model": model, "thetas": thetas}},
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
        assert len(rows) == len(thetas)
        for row, theta in zip(rows, thetas):
            direct = pearle_model(
                AngleAssignment(alice=(theta, 0.0), bob=(0.0, 0.0)),
                rejection_curve("power", max_reject=0.5, exponent=2.0),
                bins=90,
                threshold_bins=8,
            )
            assert row.split(",")[1] == repr(direct.exact_expectation(SettingPair(0, 0)).e_ab)


class TestFeasibilityCommand:
    def test_shipped_singlet_table_infeasible(self, tmp_path, capsys):
        code = main(["feasibility", "--config", str(REPO / "configs" / "feasibility_singlet.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is False
        assert doc["certificate"]["slack"] >= 2 * SQRT2 - 2 - 1e-9

    def test_uniform_table_feasible_to_file(self, tmp_path):
        cfg = write_config(
            tmp_path / "f.json",
            {"contexts": {k: [[0.25, 0.25], [0.25, 0.25]] for k in ("00", "01", "10", "11")}},
        )
        assert main(["feasibility", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "feasibility.json").read_text())
        assert doc["feasible"] is True

    def test_non_distribution_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "f.json",
            {"contexts": {k: [[0.7, 0.25], [0.25, 0.25]] for k in ("00", "01", "10", "11")}},
        )
        assert main(["feasibility", "--config", cfg]) == 2


class TestModelConfigs:
    def test_contextual_model_with_explicit_tables(self, tmp_path):
        model = {
            "family": "contextual",
            "source_weights": [[0.5, 0.0], [0.0, 0.5]],
            "instrument_weights": {
                "00": [[1.0, 0.0], [0.0, 0.0]],
                "01": [[0.0, 1.0], [0.0, 0.0]],
                "10": [[0.0, 0.0], [1.0, 0.0]],
                "11": [[0.25, 0.25], [0.25, 0.25]],
            },
            "alice": [[[1, 1], [-1, -1]], [[1, -1], [1, -1]]],
            "bob": [[[1, -1], [1, -1]], [[1, 1], [-1, -1]]],
        }
        cfg = write_config(
            tmp_path / "c.json",
            {
                "seed": 3,
                "protocol": {"kind": "source", "pair_rate": 2000.0, "duration": 1.0},
                "model": model,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        pairs = bio.read_pairs_csv(tmp_path / "raw_pairs.csv")
        assert len(pairs) == 2000
        assert (pairs.a != 0).all() and (pairs.b != 0).all()

    def test_post_selection_model_with_explicit_tables(self, tmp_path):
        model = {
            "family": "post_selection",
            "source_weights": [[0.5, 0.0], [0.0, 0.5]],
            "alice_instrument": [[0.5, 0.5], [1.0, 0.0]],
            "bob_instrument": [[1.0, 0.0], [0.5, 0.5]],
            "alice": [[[1, 0], [-1, 0]], [[1, 1], [-1, -1]]],
            "bob": [[[1, -1], [-1, 1]], [[0, 1], [0, -1]]],
        }
        cfg = write_config(
            tmp_path / "c.json",
            {
                "seed": 4,
                "protocol": {"kind": "source", "pair_rate": 5000.0, "duration": 1.0},
                "model": model,
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        pairs = bio.read_pairs_csv(tmp_path / "raw_pairs.csv")
        assert (pairs.a == 0).any() or (pairs.b == 0).any()

    def test_bad_model_tables_exit_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "seed": 1,
                "protocol": {"kind": "source", "pair_rate": 10.0, "duration": 1.0},
                "model": {
                    "family": "deterministic_lhv",
                    "weights": [0.9, 0.3],
                    "alice": [[1, 1], [1, 1]],
                    "bob": [[1, 1], [1, 1]],
                },
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "sum to 1" in capsys.readouterr().err


class TestConsoleScript:
    def test_module_invocation_works(self):
        proc = subprocess.run(
            [sys.executable, "-m", "belllab.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "belllab" in proc.stdout
