"""End-to-end CLI behavior: formats, determinism, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from belllab import io as bio
from belllab.cli import _BUILDERS, _PROTOCOLS, build_model, main
from belllab.core import CANONICAL_ANGLES, AngleAssignment
from belllab.couplings import QuantumSingletModel, _kept, pearle_model, rejection_curve
from belllab.pipeline import RawEventStream
from belllab.protocol import EventReadyConfig, SourceProtocolConfig

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


@pytest.fixture(scope="module")
def pearle_streams(tmp_path_factory):
    """The shipped Pearle source simulated for 0.05 s: time tags and raw pairs."""
    out = tmp_path_factory.mktemp("pearle")
    sim = json.loads((REPO / "configs" / "pearle_anomaly_source.json").read_text())
    sim["protocol"]["duration"] = 0.05
    main(["simulate", "--config", write_config(out / "sim.json", sim), "--out", str(out)])
    return out


#: Source runs of the four explicit-table families, each with zero-weight
#: entries in its laws; 70000 emissions make two generation chunks.
SIMULATE_SPECS = {
    "contextual": {
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
    },
    "post_selection": {
        "family": "post_selection",
        "source_weights": [[0.0, 0.5], [0.25, 0.25]],
        "alice_instrument": [[0.5, 0.0, 0.5], [1.0, 0.0, 0.0]],
        "bob_instrument": [[0.0, 0.0, 1.0], [0.5, 0.25, 0.25]],
        "alice": [[[1, 0, -1], [-1, 0, 1]], [[1, 1, 0], [-1, -1, 1]]],
        "bob": [[[1, -1, 0], [-1, 1, 1]], [[0, 1, -1], [0, -1, 1]]],
    },
    "deterministic_lhv": {
        "family": "deterministic_lhv",
        "weights": [0.0, 0.5, 0.0, 0.5, 0.0],
        "alice": [[1, -1, 1, 1, -1], [1, 1, -1, -1, 1]],
        "bob": [[-1, 1, 1, -1, 1], [1, -1, -1, 1, 1]],
    },
    "stochastic_lhv": {
        "family": "stochastic_lhv",
        "weights": [0.25, 0.0, 0.75],
        "alice_plus": [[0.9, 0.5, 0.1], [0.2, 0.3, 0.7]],
        "bob_plus": [[0.6, 0.5, 0.0], [1.0, 0.4, 0.25]],
    },
}

#: sha256 of the files simulate writes, for ``pearle_streams`` and for each of
#: ``SIMULATE_SPECS``.
SIMULATE_SHA256 = {
    "pearle": {
        "timetags_a.csv": "de86c6a4763e2f828e19fa48544cb952930ea1b2b9eef3b07725e3e381228708",
        "timetags_b.csv": "1ab651894635a862a873f53fbf1fe7a6bb16195bf870350ef040734be398cb2d",
        "raw_pairs.csv": "bae98c27fdf38f88e063f354d829b7bec47d5b733352b8ea181f61db0480b792",
    },
    "contextual": {
        "timetags_a.csv": "f7762c61b939ac63f8f31c19f91a3134c9ea980e615ffeb25be88d0631770e41",
        "timetags_b.csv": "6cb179628f95c193719cd922b029608218982a0bcfe8636f9707ddbd07490be0",
        "raw_pairs.csv": "3db637d85ba592ff2c7b700d8e697f5f61277c919e306aa1d348eb62fb4f5ea3",
    },
    "post_selection": {
        "timetags_a.csv": "ccf0cafd78c949b9e3a71495652cec52a309a3ca03aebd532a4038ed1972139f",
        "timetags_b.csv": "57b0149cc008307e9a31516afbb0644feb293e27dbe93a241c2454707ead1d99",
        "raw_pairs.csv": "43542f7c6336f39669ad2534aae7ce10cb2a4be63ab8cc70a162c9bd55f11b41",
    },
    "deterministic_lhv": {
        "timetags_a.csv": "431b66ae79e835d3ae5b0c57bb8b0df86267d12f85a96fbf7d7c801466b08f52",
        "timetags_b.csv": "d168b025f881234752b6dc1934715bfe3ca5a0022af7293fb45f2b3cd31e5aa6",
        "raw_pairs.csv": "637a00968db9b751939fdc5d1b47c8251ea850a13fec11c26baeaf6fb7d6cb5c",
    },
    "stochastic_lhv": {
        "timetags_a.csv": "2508cd982a791cb8edf6b55706ba6af20b5013f66f92d26b2e850d3fb7f2f2fd",
        "timetags_b.csv": "7937a07591f31b7634401a86655be06c2c076c78e6c71d451f2a604f1993179d",
        "raw_pairs.csv": "ea7d6f6c311119c8706e1245eb6c0b3c2b18c7da47c4bf4029578818fe884d78",
    },
}


class TestSimulateBytes:
    def test_pearle_files_unchanged(self, pearle_streams):
        for name, digest in SIMULATE_SHA256["pearle"].items():
            assert hashlib.sha256((pearle_streams / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("family", sorted(SIMULATE_SPECS))
    def test_tabulated_family_files_unchanged(self, tmp_path, family):
        cfg = source_config(
            SIMULATE_SPECS[family], pair_rate=70_000.0, jitter_sd=2.0, dark_rate=500.0,
            setting_delay={"alice": [0.0, 4.0], "bob": [0.0, 6.0]},
        )
        cfg["seed"] = 20260810
        assert main(["simulate", "--config", write_config(tmp_path / "c.json", cfg), "--out", str(tmp_path)]) == 0
        for name, digest in SIMULATE_SHA256[family].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


#: sha256 of report.json from analyze at W = 15 ns on ``pearle_streams``, per
#: (strategy, raw_pairs given).
REPORT_JSON_SHA256 = {
    ("greedy", False): "0cf8f2c6dc3b0c7ecf0747e60c84d10bd867bfc92ef7b90e6aed52a43416e64f",
    ("greedy", True): "f919e20f21add5678d2306c5bfb302eb5aef1abff0afb812379e74ffda7db66b",
    ("lattice", False): "dbf4e4e1428f81f34c399530c38535787adc6faeb638eb1f4b52ae41b34d1079",
    ("lattice", True): "e542fd9032e2fa5f0870b4f69b52521a5d29c4b0dfad2f456f4d3a46d3e199bc",
}

#: sha256 of the trials-branch outputs of analyze, on 5000 event-ready trials.
TRIALS_REPORT_SHA256 = {
    "report.json": "b93f32e5fb79a22dbbb1869f6ca506d3cfffaf045072a7004a717ad3e8596309",
    "summary.csv": "257032c829b6be78d58e5c2f8acf5a80af5f4db64c0f8b1c7509a606fbfde7b1",
}


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

    @pytest.mark.parametrize("raw_pairs", [False, True])
    @pytest.mark.parametrize("strategy", ["greedy", "lattice"])
    def test_windowed_report_bytes_unchanged(self, tmp_path, monkeypatch, pearle_streams, strategy, raw_pairs):
        # The digests pin report.json, so the windowed analyze stays one width
        # of the window sweep to the byte. Relative paths keep the echoed config fixed.
        monkeypatch.chdir(pearle_streams)
        inputs = {"timetags_a": "timetags_a.csv", "timetags_b": "timetags_b.csv"}
        inputs["window"] = {"width_ns": 15, "strategy": strategy}
        if raw_pairs:
            inputs["raw_pairs"] = "raw_pairs.csv"
        cfg = write_config(tmp_path / "an.json", {"seed": 20260810, "inputs": inputs})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == REPORT_JSON_SHA256[strategy, raw_pairs]

    def test_trials_report_bytes_unchanged(self, tmp_path, monkeypatch):
        # The digests pin report.json and summary.csv of the trials branch.
        # Relative paths keep the echoed config fixed.
        monkeypatch.chdir(tmp_path)
        main(["simulate", "--config", write_config(tmp_path / "sim.json", event_ready_config(5000, seed=2))])
        cfg = write_config(tmp_path / "an.json", {"seed": 2, "inputs": {"trials": "trials.csv"}})
        assert main(["analyze", "--config", cfg, "--out", "r"]) == 0
        for name, digest in TRIALS_REPORT_SHA256.items():
            assert hashlib.sha256((tmp_path / "r" / name).read_bytes()).hexdigest() == digest

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


#: The ten widths of the benchmark's Pearle window sweep.
BENCH_WINDOWS_NS = [2, 4, 8, 15, 30, 60, 100, 200, 500, 1000]
#: sha256 of windows.csv for the shipped Pearle source at 0.05 s, per strategy.
WINDOWS_CSV_SHA256 = {
    "greedy": "72247577498e6a72d8b67761b708ee6af9c4a14dcdb1de6996cf574f7a197ed5",
    "lattice": "3a949875e55dbda0d424cfb1404431b0bf4fee084d40f741a91228bb1eb3e8c4",
}
#: sha256 of windows.json from the same sweeps.
WINDOWS_JSON_SHA256 = {
    "greedy": "6d7336200a11c40a26a61df3274db13395b12fa8e37391d8a2753de1517bc1de",
    "lattice": "e4aed9501b2cf55b49a5fdc18a79175f4e2edbbba246418365a96db500051d59",
}
#: Theta sweeps of the singlet, exact and Monte-Carlo.
THETA_SWEEPS = {
    "exact": {"model": {"family": "quantum_singlet", "visibility": 0.9}, "thetas": {"start": 0.0, "stop": 3.0, "count": 7}},
    "monte_carlo": {"model": {"family": "quantum_singlet"}, "thetas": [0.0, 0.7, 2.0], "n_per_point": 2000},
}
#: sha256 of sweep.csv and sweep.json from sweep, per theta sweep.
THETA_SWEEP_SHA256 = {
    "exact": {
        "sweep.csv": "efdd6222d7f0d30b261d95e420ec5986bc5ff2db4a4b630645ce46aa4784c184",
        "sweep.json": "b696c7d84cbb3b89fb3a16afc807b290924dfe31f78d4d05d4cf9c666f43dede",
    },
    "monte_carlo": {
        "sweep.csv": "e696fbcb2b72373a78492c78cfcb36b660c864213c71a102818183e1e1a7dd41",
        "sweep.json": "096b0509953c0f289de1af4f760fe2820f6907d859985afa7ef7f209986ec866",
    },
}


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

    @pytest.mark.parametrize("strategy", sorted(WINDOWS_CSV_SHA256))
    def test_window_sweep_bytes_unchanged(self, tmp_path, strategy):
        # The digests pin windows.csv and windows.json, so no faster pairing,
        # post-selection or code check can move one output byte of either strategy.
        sim = json.loads((REPO / "configs" / "pearle_anomaly_source.json").read_text())
        sim["protocol"]["duration"] = 0.05
        main(["simulate", "--config", write_config(tmp_path / "sim.json", sim), "--out", str(tmp_path)])
        sweep = {"kind": "window", "strategy": strategy, "windows_ns": BENCH_WINDOWS_NS}
        sweep.update((key, str(tmp_path / f"{key}.csv")) for key in ("timetags_a", "timetags_b"))
        cfg = write_config(tmp_path / "w.json", {"seed": sim["seed"], "sweep": sweep})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "windows.csv").read_bytes()).hexdigest()
        assert digest == WINDOWS_CSV_SHA256[strategy]
        digest = hashlib.sha256((tmp_path / "windows.json").read_bytes()).hexdigest()
        assert digest == WINDOWS_JSON_SHA256[strategy]

    @pytest.mark.parametrize("case", sorted(THETA_SWEEPS))
    def test_theta_sweep_bytes_unchanged(self, tmp_path, case):
        cfg = write_config(tmp_path / "c.json", {"seed": 6, "sweep": {"kind": "theta", **THETA_SWEEPS[case]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        for name, digest in THETA_SWEEP_SHA256[case].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", ["theta", "window"])
    def test_documents_carry_versions_and_command(self, tmp_path, pearle_streams, kind):
        if kind == "theta":
            sweep = {"model": {"family": "quantum_singlet"}, "thetas": [0.0, 1.0]}
        else:
            sweep = {"windows_ns": [4, 15]}
            sweep.update((key, str(pearle_streams / f"{key}.csv")) for key in ("timetags_a", "timetags_b"))
        cfg = write_config(tmp_path / "c.json", {"seed": 11, "sweep": {"kind": kind, **sweep}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / ("sweep.json" if kind == "theta" else "windows.json")).read_text())
        assert set(doc) == {"schema_version", "belllab_version", "command", "seed", "points"}
        assert doc["command"] == "sweep" and doc["seed"] == 11 and len(doc["points"]) == 2

    @pytest.mark.parametrize("kind", ["theta", "window"])
    def test_bytes_independent_of_worker_count(self, tmp_path, monkeypatch, pearle_streams, kind):
        if kind == "theta":
            sweep = {"model": {"family": "quantum_singlet", "visibility": 0.8}, "n_per_point": 20_000}
            sweep["thetas"] = {"start": 0.0, "stop": 3.0, "count": 12}
        else:
            sweep = {"windows_ns": [4, 15, 60], "strategy": "greedy"}
            sweep.update((key, str(pearle_streams / f"{key}.csv")) for key in ("timetags_a", "timetags_b"))
        cfg = write_config(tmp_path / "c.json", {"seed": 11, "sweep": {"kind": kind, **sweep}})
        name = "sweep" if kind == "theta" else "windows"
        outputs = []
        for threads in ("1", "2", "5"):
            monkeypatch.setenv("BELLLAB_THREADS", threads)
            out = tmp_path / threads
            assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in (f"{name}.csv", f"{name}.json", "metadata.json")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_theta_sweep_reports_the_first_failing_point(self, tmp_path, monkeypatch, capsys):
        # Points 3 and 7 fail to build on two workers; the error is point 3's, as in a serial loop.
        monkeypatch.setenv("BELLLAB_THREADS", "2")
        thetas = [0.25 * i for i in range(10)]
        check = AngleAssignment.__post_init__

        def refuse_two_points(angles):
            if angles.alice[0] in (thetas[3], thetas[7]):
                raise ValueError(f"point {thetas.index(angles.alice[0])} refused")
            check(angles)

        monkeypatch.setattr(AngleAssignment, "__post_init__", refuse_two_points)
        sweep = {"kind": "theta", "model": {"family": "quantum_singlet"}, "thetas": thetas, "n_per_point": 1000}
        cfg = write_config(tmp_path / "c.json", {"seed": 1, "sweep": sweep})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: sweep.model.angles: point 3 refused\n"
        assert not (tmp_path / "sweep.csv").exists()

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


def trials_inputs(path, text):
    """Analyze config on a trials file holding ``text``, written as Latin-1 so \\xff stays one byte."""
    path.write_bytes(text.encode("latin-1"))
    return {"seed": 1, "inputs": {"trials": str(path)}}


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


def window_sweep_config(tmp_path, windows_ns):
    inputs = stream_inputs(tmp_path, None)["inputs"]
    sweep = {"kind": "window", "windows_ns": windows_ns}
    sweep.update((key, inputs[key]) for key in ("timetags_a", "timetags_b"))
    return {"seed": 1, "sweep": sweep}


def station_files(config, path, a, b):
    """``config`` with ``timetags_a`` and ``timetags_b`` naming the files of fields ``a`` and ``b``."""
    files = config[path]
    files["timetags_a"], files["timetags_b"] = files[a], files[b]
    return config


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
PEARLE_LINEAR_EXPONENT_3 = {
    "family": "pearle",
    "angles": CANONICAL_ANGLES_JSON,
    "rejection": {"kind": "linear", "max_reject": 0.8, "exponent": 3.0},
}
LATTICE_15 = {"width_ns": 15}
BAD_TAGS = "# belllab schema_version=1 kind=timetags seed=1 station=A\ntime_ns,setting,outcome\n5,257,1\n"
BAD_PAIRS = "# belllab schema_version=1 kind=pairs seed=1\nx,y,a,b\n0,0,255,1\n"
PAIRS_SETTING_2 = "# belllab schema_version=1 kind=pairs seed=1\nx,y,a,b\n2,0,1,1\n"
BAD_TRIALS = "# belllab schema_version=1 kind=trials seed=1\ntrial_id,x,y,a,b,ready\n0,0,0,0,1,1\n"
FLOAT_TRIALS = "# belllab schema_version=1 kind=trials seed=1\ntrial_id,x,y,a,b,ready\n0,0,0,1.0,1,1\n"
UNSORTED_TAGS = "# belllab schema_version=1 kind=timetags seed=1 station=A\ntime_ns,setting,outcome\n10,0,1\n5,0,1\n"
TRIALS_HEADER = "# belllab schema_version=1 kind=trials seed=1\ntrial_id,x,y,a,b,ready\n"
SHORT_ROW_TAGS = "# belllab schema_version=1 kind=timetags seed=1 station=A\ntime_ns,setting,outcome\n5,0\n"
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
STOCHASTIC_LHV = {
    "family": "stochastic_lhv",
    "weights": [1.0],
    "alice_plus": [[0.5], [0.5]],
    "bob_plus": [[0.5], [0.5]],
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
    # An event-ready section feeds EventReadyConfig and the singlet; each checks its own fields.
    "event_ready_visibility_above_one": (
        "simulate",
        lambda tmp: event_ready_config(10, visibility=1.5),
        "protocol: visibility must be in [0, 1], got 1.5",
    ),
    "event_ready_missing_angles": (
        "simulate",
        lambda tmp: {"seed": 1, "protocol": {"kind": "event_ready", "n_trials": 10, "herald_prob": 1.0}},
        "protocol.angles: missing required field",
    ),
    "event_ready_boolean_n_trials": (
        "simulate",
        lambda tmp: event_ready_config(True),
        "protocol.n_trials: must be an integer",
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
    # The curve's section sits inside the model's, and its path is the innermost one.
    "max_reject_one_inner_path_only": (
        "simulate",
        lambda tmp: source_config(PEARLE_MAX_REJECT_1),
        "error: model.rejection: max_reject must be in [0, 1), got 1.0",
    ),
    "exponent_zero": ("simulate", lambda tmp: source_config(PEARLE_EXPONENT_0), "model.rejection: exponent"),
    # A linear curve is the power curve at exponent 1; any other exponent is refused, not dropped.
    "linear_exponent_three": (
        "simulate",
        lambda tmp: source_config(PEARLE_LINEAR_EXPONENT_3),
        "error: model.rejection: a linear curve has exponent 1, got 3.0",
    ),
    "duration_zero": ("simulate", lambda tmp: source_config(duration=0), "protocol: duration"),
    "huge_integer_rate": (
        "simulate",
        lambda tmp: source_config(pair_rate=10**400),
        "protocol.pair_rate: must be a finite number",
    ),
    "negative_dark_rate": ("simulate", lambda tmp: source_config(dark_rate=-1.0), "protocol: dark_rate"),
    "width_zero": ("analyze", lambda tmp: stream_inputs(tmp, {"width_ns": 0}), "inputs.window: window"),
    # Widths, delays and jitter that would take bins or time tags out of int64.
    "width_above_int64": (
        "analyze",
        lambda tmp: stream_inputs(tmp, {"width_ns": 2**70}),
        "inputs.window: window width",
    ),
    "sweep_width_above_int64": ("sweep", lambda tmp: window_sweep_config(tmp, [2**64]), "sweep: window width"),
    # Every width is checked before the first is paired.
    "sweep_last_width_zero": (
        "sweep",
        lambda tmp: window_sweep_config(tmp, [5, 0]),
        "sweep: window width must be in (0, 2**63) ns, got 0",
    ),
    "huge_setting_delay": (
        "simulate",
        lambda tmp: source_config(setting_delay={"alice": [1e300, 0.0]}),
        "protocol: setting_delay_a",
    ),
    "huge_jitter_sd": ("simulate", lambda tmp: source_config(jitter_sd=1e300), "and jitter_sd must keep time tags"),
    "unsorted_timetags": (
        "analyze",
        lambda tmp: stream_inputs(tmp, LATTICE_15, timetags_a=UNSORTED_TAGS),
        "timetags_a.csv: stream A is not time-sorted: data row 2 has time 5, before 10 in data row 1",
    ),
    # A time-tag file must hold the station of the field that names it.
    "swapped_timetags": (
        "analyze",
        lambda tmp: station_files(stream_inputs(tmp, LATTICE_15), "inputs", "timetags_b", "timetags_a"),
        "inputs.timetags_a: holds station B, not A",
    ),
    "sweep_timetags_b_of_station_a": (
        "sweep",
        lambda tmp: station_files(window_sweep_config(tmp, [5]), "sweep", "timetags_a", "timetags_a"),
        "sweep.timetags_b: holds station A, not B",
    ),
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
    # A reader's constructor error names the file.
    "pairs_setting_2": (
        "analyze",
        lambda tmp: stream_inputs(tmp, LATTICE_15, raw_pairs=PAIRS_SETTING_2),
        "raw_pairs.csv: settings must be in (-1, 0, 1)",
    ),
    # An input that cannot be opened exits 2 with the OSError's own message.
    "trials_file_missing": (
        "analyze",
        lambda tmp: {"seed": 1, "inputs": {"trials": str(tmp / "missing.csv")}},
        "error: [Errno 2] No such file or directory",
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
    # A 0-d weights table once crashed on its missing axis, and NaN passed the
    # probability check of alice_plus.
    "lhv_scalar_weights": (
        "simulate",
        lambda tmp: source_config({**LHV_NARROWED, "weights": 1.0, "alice": [[1], [1]]}),
        "model: weights must be a nonempty table of shape (m), got ()",
    ),
    "stochastic_scalar_weights": (
        "simulate",
        lambda tmp: source_config({**STOCHASTIC_LHV, "weights": 1.0}),
        "model: weights must be a nonempty table of shape (m), got ()",
    ),
    "stochastic_nan_alice_plus": (
        "simulate",
        lambda tmp: source_config({**STOCHASTIC_LHV, "alice_plus": [[math.nan], [0.5]]}),
        "model: alice_plus entries must be finite and in [0, 1]",
    ),
    # A float cast once read true as 1, and "1.0" as 1.0.
    "lhv_boolean_weight": (
        "simulate",
        lambda tmp: source_config({**LHV_NARROWED, "weights": [True], "alice": [[1], [1]]}),
        "model.weights: must be a numeric array, got True",
    ),
    "lhv_string_weight": (
        "simulate",
        lambda tmp: source_config({**LHV_NARROWED, "weights": ["1.0"], "alice": [[1], [1]]}),
        "model.weights: must be a numeric array, got '1.0'",
    ),
    "feasibility_boolean_cell": (
        "feasibility",
        lambda tmp: {"contexts": {**FEASIBILITY_CASES["local"], "00": [[True, 0], [0, 0]]}},
        "contexts.00: must be a numeric array, got True",
    ),
    # The curve's kind has no default.
    "rejection_without_kind": (
        "simulate",
        lambda tmp: source_config({"family": "pearle", "angles": CANONICAL_ANGLES_JSON, "rejection": {}}),
        "model.rejection.kind: missing required field",
    ),
    "huge_integer_weight": (
        "simulate",
        lambda tmp: source_config({**LHV_NARROWED, "weights": [10**400]}),
        "model.weights: must be a numeric array",
    ),
    "feasibility_huge_integer_cell": (
        "feasibility",
        lambda tmp: {"contexts": {k: [[10**400, 0], [0, 0]] for k in ("00", "01", "10", "11")}},
        "contexts.00: must be a numeric array",
    ),
    "feasibility_context_shapes_differ": (
        "feasibility",
        lambda tmp: {"contexts": {**FEASIBILITY_CASES["local"], "10": [[0.2, 0.1, 0.1]] * 3}},
        "contexts: the four context arrays must have one shape",
    ),
    "feasibility_contexts_not_2x2": (
        "feasibility",
        lambda tmp: {"contexts": {k: [[0.2, 0.1, 0.1]] * 3 for k in ("00", "01", "10", "11")}},
        "contexts: tables must have shape (2, 2, 2, 2)",
    ),
    "feasibility_negative_cell": (
        "feasibility",
        lambda tmp: {"contexts": {**FEASIBILITY_CASES["local"], "00": [[1.25, -0.25], [0, 0]]}},
        "contexts: context 00: table entries must be probabilities",
    ),
    "feasibility_context_sums_to_two": (
        "feasibility",
        lambda tmp: {"contexts": {**FEASIBILITY_CASES["local"], "01": [[0.5, 0.5], [0.5, 0.5]]}},
        "contexts: context 01: table must sum to 1, got 2.0",
    ),
    "contextual_instrument_shapes_differ": (
        "simulate",
        lambda tmp: source_config(
            {**CONTEXTUAL_NARROWED, "instrument_weights": {"00": [[1.0]], "01": [1.0], "10": [[1.0]], "11": [[1.0]]}}
        ),
        "model.instrument_weights: the four context arrays must have one shape",
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
    # Code columns are parsed as int16; a cell beyond it is a parse error.
    "trials_code_cell_above_int16": (
        "analyze",
        lambda tmp: trials_inputs(tmp / "trials.csv", TRIALS_HEADER + "0,0,0,1,1,1\n1,70000,0,1,1,0\n"),
        "trials.csv: could not convert string '70000' to int16",
    ),
    "timetags_row_missing_cell": (
        "analyze",
        lambda tmp: stream_inputs(tmp, LATTICE_15, timetags_a=SHORT_ROW_TAGS),
        "timetags_a.csv: the dtype passed requires 3 columns but 2 were found",
    ),
    "trials_non_utf8_header": (
        "analyze",
        lambda tmp: trials_inputs(tmp / "trials.csv", TRIALS_HEADER.replace("seed=1", "seed=1\xff")),
        "trials.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    "trials_non_utf8_body": (
        "analyze",
        lambda tmp: trials_inputs(tmp / "trials.csv", TRIALS_HEADER + "0,0,0,1,1,1\n1,\xff,0,1,1,1\n"),
        "trials.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    # np.loadtxt would open these through a decompressor, which fails on a plain file.
    **{
        f"trials_named_{suffix[1:]}": (
            "analyze",
            lambda tmp, suffix=suffix: trials_inputs(tmp / f"trials{suffix}", TRIALS_HEADER + "0,0,0,1,1,1\n"),
            f"trials{suffix}: CSV inputs are read as plain text",
        )
        for suffix in (".gz", ".bz2", ".xz", ".lzma")
    },
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
    "negative_seed_event_ready": (
        "simulate",
        lambda tmp: event_ready_config(10, seed=-5),
        "error: seed: must be a non-negative integer, got -5",
    ),
    "negative_seed_source": (
        "simulate",
        lambda tmp: {**source_config(), "seed": -5},
        "error: seed: must be a non-negative integer, got -5",
    ),
    "ready_trial_zero_outcome": (
        "analyze",
        lambda tmp: {"seed": 1, "inputs": {"trials": text_file(tmp / "trials.csv", BAD_TRIALS)}},
        "trials.csv: data row 1",
    ),
    # Every key of a section is read or rejected: a misspelt field once took its default.
    "unknown_model_field": (
        "simulate",
        lambda tmp: source_config({"family": "quantum_singlet", "angles": CANONICAL_ANGLES_JSON, "visiblity": 0.5}),
        "error: model.visiblity: unknown field",
    ),
    "unknown_source_protocol_field": (
        "simulate",
        lambda tmp: source_config(jiter_sd=5.0),
        "error: protocol.jiter_sd: unknown field",
    ),
    # A delay is read from its group, never by the constructor's parameter name.
    "source_protocol_parameter_name": (
        "simulate",
        lambda tmp: source_config(setting_delay_a=[1.0, 2.0]),
        "error: protocol.setting_delay_a: unknown field",
    ),
    "unknown_setting_delay_station": (
        "simulate",
        lambda tmp: source_config(setting_delay={"alcie": [1.0, 2.0]}),
        "error: protocol.setting_delay.alcie: unknown field",
    ),
    "unknown_outcome_delay_station": (
        "simulate",
        lambda tmp: source_config(outcome_delay={"bob": [0.0, 8.0], "carol": [0.0, 1.0]}),
        "error: protocol.outcome_delay.carol: unknown field",
    ),
    # An event-ready section holds the fields of EventReadyConfig and of the singlet, and no others.
    "unknown_event_ready_field": (
        "simulate",
        lambda tmp: event_ready_config(10, jitter_sd=1.0),
        "error: protocol.jitter_sd: unknown field",
    ),
    "unknown_angles_field": (
        "simulate",
        lambda tmp: event_ready_config(10, angles={**CANONICAL_ANGLES_JSON, "charlie": [0.0, 0.0]}),
        "error: protocol.angles.charlie: unknown field",
    ),
    "unknown_rejection_field": (
        "simulate",
        lambda tmp: source_config(
            {"family": "pearle", "angles": CANONICAL_ANGLES_JSON, "rejection": {"kind": "power", "exponnent": 2.0}}
        ),
        "error: model.rejection.exponnent: unknown field",
    ),
    "unknown_theta_sweep_model_field": (
        "sweep",
        lambda tmp: {
            "seed": 1,
            "sweep": {"kind": "theta", "model": {"family": "quantum_singlet", "visiblity": 0.5}, "thetas": [0.0]},
        },
        "error: sweep.model.visiblity: unknown field",
    ),
    # The sections the commands read by hand hold their own keys and no others.
    "unknown_top_level_field": (
        "simulate",
        lambda tmp: {**source_config(), "modle": {"family": "disjoint_support"}},
        "error: modle: unknown field",
    ),
    # An event-ready run reads its singlet from the protocol section.
    "event_ready_with_model": (
        "simulate",
        lambda tmp: {**event_ready_config(10), "model": {"family": "disjoint_support"}},
        "error: model: unknown field",
    ),
    "feasibility_fifth_context": (
        "feasibility",
        lambda tmp: {"contexts": {key: [[0.25, 0.25], [0.25, 0.25]] for key in ("00", "01", "10", "11", "12")}},
        "error: contexts.12: unknown field",
    ),
    "analyze_with_protocol": (
        "analyze",
        lambda tmp: {**trials_inputs(tmp / "t.csv", ""), "protocol": {"kind": "source"}},
        "error: protocol: unknown field",
    ),
    "sweep_with_inputs": (
        "sweep",
        lambda tmp: {**window_sweep_config(tmp, [5]), "inputs": {}},
        "error: inputs: unknown field",
    ),
    "feasibility_with_sweep": (
        "feasibility",
        lambda tmp: {**json.loads((REPO / "configs" / "feasibility_singlet.json").read_text()), "sweep": {}},
        "error: sweep: unknown field",
    ),
    "trials_with_window": (
        "analyze",
        lambda tmp: {"seed": 1, "inputs": {"trials": str(tmp / "t.csv"), "window": {"width_ns": 15}}},
        "error: inputs.window: unknown field",
    ),
    "trials_with_timetags": (
        "analyze",
        lambda tmp: {"seed": 1, "inputs": {"trials": str(tmp / "t.csv"), "timetags_a": str(tmp / "a.csv")}},
        "error: inputs.timetags_a: unknown field",
    ),
    # A misspelt strategy once paired by lattice and exited 0.
    "window_strategy_misspelt": (
        "analyze",
        lambda tmp: stream_inputs(tmp, {"width_ns": 15, "stratgy": "greedy"}),
        "error: inputs.window.stratgy: unknown field",
    ),
    "theta_sweep_with_windows": (
        "sweep",
        lambda tmp: {
            "seed": 1,
            "sweep": {"kind": "theta", "model": {"family": "quantum_singlet"}, "thetas": [0.0], "windows_ns": [5]},
        },
        "error: sweep.windows_ns: unknown field",
    ),
    "window_sweep_with_n_per_point": (
        "sweep",
        lambda tmp: {
            "seed": 1,
            "sweep": {"kind": "window", "timetags_a": "a.csv", "timetags_b": "b.csv", "windows_ns": [5], "n_per_point": 10},
        },
        "error: sweep.n_per_point: unknown field",
    ),
    "thetas_object_with_step": (
        "sweep",
        lambda tmp: {
            "seed": 1,
            "sweep": {
                "kind": "theta",
                "model": {"family": "quantum_singlet"},
                "thetas": {"start": 0.0, "stop": 1.0, "count": 3, "step": 0.5},
            },
        },
        "error: sweep.thetas.step: unknown field",
    ),
    "theta_sweep_model_angles": (
        "sweep",
        lambda tmp: {
            "seed": 1,
            "sweep": {"kind": "theta", "model": {"family": "quantum_singlet", "angles": CANONICAL_ANGLES_JSON}, "thetas": [0.0]},
        },
        "error: sweep.model.angles: must be absent",
    ),
}


def sectioned_configs():
    """(command, config, path) for every config section: a fresh valid config each, in which
    ``path`` names the object that section reads ("" for the top level). No input file
    exists, and none is opened: every section's keys are checked before any file is read."""
    pearle = {
        "family": "pearle",
        "angles": CANONICAL_ANGLES_JSON,
        "bins": 8,
        "threshold_bins": 2,
        "rejection": {"kind": "linear"},
    }
    source = source_config(pearle, setting_delay={"alice": [0.0, 1.0]}, outcome_delay={"bob": [0.0, 1.0]})
    theta = {"seed": 1, "sweep": {"kind": "theta", "model": {"family": "quantum_singlet"}, "thetas": [0.0]}}
    grid = {"seed": 1, "sweep": {**theta["sweep"], "thetas": {"start": 0.0, "stop": 1.0, "count": 2}}}
    files = {"timetags_a": "a.csv", "timetags_b": "b.csv"}
    windowed = {"seed": 1, "inputs": {**files, "raw_pairs": "p.csv", "window": {"width_ns": 15, "strategy": "lattice"}}}
    trials = {"seed": 1, "inputs": {"trials": "t.csv"}}
    window = {"seed": 1, "sweep": {"kind": "window", **files, "windows_ns": [5], "strategy": "greedy"}}
    feasibility = json.loads((REPO / "configs" / "feasibility_singlet.json").read_text())
    paths = ("", "model", "model.angles", "model.rejection", "protocol", "protocol.setting_delay", "protocol.outcome_delay")
    cases = (
        [("simulate", source, path) for path in paths]
        + [("simulate", event_ready_config(10), path) for path in ("protocol", "protocol.angles")]
        + [("analyze", windowed, path) for path in ("", "inputs", "inputs.window")]
        + [("analyze", trials, "inputs")]
        + [("sweep", theta, path) for path in ("", "sweep", "sweep.model")]
        + [("sweep", grid, "sweep.thetas"), ("sweep", window, "sweep")]
        + [("feasibility", feasibility, path) for path in ("", "contexts")]
    )
    # Deep copies: a test adds a key, and the shared angles must not keep it.
    return [(command, json.loads(json.dumps(config)), path) for command, config, path in cases]


#: Every key a config section reads, in any section.
READ_KEYS = {
    "family", "kind", "angles", "alice", "bob", "visibility", "bins", "threshold_bins", "rejection",
    "max_reject", "exponent", "pair_rate", "duration", "jitter_sd", "dark_rate", "setting_delay",
    "outcome_delay", "n_trials", "herald_prob", "fidelity_a", "fidelity_b", "seed", "protocol", "model",
    "inputs", "sweep", "contexts", "trials", "timetags_a", "timetags_b", "raw_pairs", "window", "width_ns",
    "strategy", "thetas", "n_per_point", "windows_ns", "start", "stop", "count", "00", "01", "10", "11",
}  # fmt: skip


class TestMalformedConfigs:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_two_naming_the_field(self, tmp_path, capsys, case):
        command, build, expected = MALFORMED[case]
        cfg = write_config(tmp_path / "c.json", build(tmp_path))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert expected in capsys.readouterr().err

    @given(
        st.integers(0, len(sectioned_configs()) - 1),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12),
    )
    @settings(max_examples=100)
    def test_one_extra_key_exits_two_naming_it(self, index, key):
        assume(key not in READ_KEYS)
        command, config, path = sectioned_configs()[index]
        section = config
        for part in path.split(".") if path else ():
            section = section[part]
        section[key] = 1.0
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            cfg = write_config(Path(tmp) / "c.json", config)
            assert main([command, "--config", cfg, "--out", str(Path(tmp) / "out")]) == 2
        assert err.getvalue() == f"error: {f'{path}.' if path else ''}{key}: unknown field\n"

    @pytest.mark.parametrize("command", ["sweep", "feasibility"])
    def test_negative_seed_flag_exits_two(self, tmp_path, capsys, command):
        if command == "sweep":
            cfg = write_config(tmp_path / "c.json", window_sweep_config(tmp_path, [5]))
        else:
            cfg = str(REPO / "configs" / "feasibility_singlet.json")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
        assert "seed: must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            # E at the (0, 0) context, read from the law as the exact sweep reads it.
            block, _ = _kept(direct.law())
            sign = np.array([1.0, -1.0])
            assert row.split(",")[1] == repr(float(sign @ block[0, 0] @ sign))

    def test_theta_sweep_rejects_spec_angles(self, tmp_path, capsys):
        # The sweep sets each point's angles, so angles in the model object would be overwritten.
        for name, angles in (("canonical", CANONICAL_ANGLES_JSON), ("malformed", {"alice": "north"})):
            model = {"family": "pearle", "bins": 90, "threshold_bins": 8, "angles": angles}
            sweep = {"kind": "theta", "model": model, "thetas": [0.0, 0.7]}
            cfg = write_config(tmp_path / f"{name}.json", {"seed": 1, "sweep": sweep})
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / name)]) == 2
            assert capsys.readouterr().err == "error: sweep.model.angles: must be absent: the sweep sets each point's angles\n"


#: Feasibility inputs: tables of a local model (a witness), a PR box (a CHSH
#: certificate) and tables whose marginals signal (a dual certificate).
FEASIBILITY_CASES = {
    "local": {
        "00": [[0.4, 0.1], [0.1, 0.4]],
        "01": [[0.3, 0.2], [0.2, 0.3]],
        "10": [[0.35, 0.15], [0.15, 0.35]],
        "11": [[0.25, 0.25], [0.25, 0.25]],
    },
    "pr_box": {
        "00": [[0.5, 0.0], [0.0, 0.5]],
        "01": [[0.5, 0.0], [0.0, 0.5]],
        "10": [[0.5, 0.0], [0.0, 0.5]],
        "11": [[0.0, 0.5], [0.5, 0.0]],
    },
    "signalling": {
        "00": [[0.7, 0.1], [0.1, 0.1]],
        "01": [[0.1, 0.1], [0.1, 0.7]],
        "10": [[0.25, 0.25], [0.25, 0.25]],
        "11": [[0.25, 0.25], [0.25, 0.25]],
    },
}
#: sha256 of feasibility.json (and of the same document on stdout) per case.
FEASIBILITY_JSON_SHA256 = {
    "local": "b54f416465be2631a0bcf9c4d283ce7840dd4fd8fc63c8bfd7d0f6d4ce6f6fea",
    "pr_box": "3c295ebc9c4d8abc25f692c1db1cef27a5427a30415de846d17879da681b99ac",
    "signalling": "d1c9bff13eb8e163b4e91acbe11f0ada09fad5aa154ae53282c2481223a47e69",
}


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

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("name", sorted(FEASIBILITY_CASES))
    def test_output_bytes_unchanged(self, tmp_path, capsys, name, to_file):
        # The digests pin the witness, the CHSH certificate and the dual certificate.
        cfg = write_config(tmp_path / "f.json", {"contexts": FEASIBILITY_CASES[name]})
        out = ["--out", str(tmp_path)] if to_file else []
        assert main(["feasibility", "--config", cfg, *out]) == 0
        text = (tmp_path / "feasibility.json").read_bytes() if to_file else capsys.readouterr().out.encode()
        assert hashlib.sha256(text).hexdigest() == FEASIBILITY_JSON_SHA256[name]

    def test_non_distribution_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "f.json",
            {"contexts": {k: [[0.7, 0.25], [0.25, 0.25]] for k in ("00", "01", "10", "11")}},
        )
        assert main(["feasibility", "--config", cfg]) == 2

    def test_entry_at_the_negative_tolerance_is_feasible(self, tmp_path, capsys):
        # The table check accepts -1e-12, which the simplex reads as 0.
        contexts = {k: [[0.5, 0.0], [0.0, 0.5]] for k in ("01", "10", "11")}
        cfg = write_config(tmp_path / "f.json", {"contexts": {"00": [[0.5, -1e-12], [1e-12, 0.5]], **contexts}})
        assert main(["feasibility", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True


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


class TestConstructorDefaults:
    """A config that omits every optional field builds what the constructor builds from its required arguments."""

    @pytest.mark.parametrize(
        "kind, spec, expected",
        [
            ("event_ready", {"n_trials": 10, "herald_prob": 0.5}, EventReadyConfig(10, 0.5)),
            ("source", {"pair_rate": 10.0, "duration": 1.0}, SourceProtocolConfig(10.0, 1.0)),
        ],
    )
    def test_protocol(self, kind, spec, expected):
        assert _PROTOCOLS[kind]({"kind": kind, **spec}, "protocol") == expected

    def test_event_ready_singlet(self):
        spec = {"kind": "event_ready", "n_trials": 10, "herald_prob": 0.5, "angles": CANONICAL_ANGLES_JSON}
        assert _BUILDERS["quantum_singlet"](spec, "protocol") == QuantumSingletModel(CANONICAL_ANGLES)

    @pytest.mark.parametrize(
        "family, expected",
        [
            ("quantum_singlet", QuantumSingletModel(CANONICAL_ANGLES)),
            ("pearle", pearle_model(CANONICAL_ANGLES)),
        ],
    )
    def test_model(self, family, expected):
        model = build_model({"family": family, "angles": CANONICAL_ANGLES_JSON}, "model")
        assert type(model) is type(expected)
        for f in dataclasses.fields(expected):
            assert np.array_equal(getattr(model, f.name), getattr(expected, f.name)), f.name


SUBMODULES = ("core", "couplings", "protocol", "pipeline", "io", "analysis", "cli")


class TestConsoleScript:
    def test_module_invocation_works(self):
        proc = subprocess.run(
            [sys.executable, "-m", "belllab.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "belllab" in proc.stdout

    def test_runtime_imports_no_scipy(self):
        # numpy is the only runtime dependency; scipy serves the tests as an oracle.
        modules = ", ".join(f"belllab.{name}" for name in SUBMODULES)
        loaded = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"
        code = f"import sys, belllab, {modules}; print({loaded})"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["simulate", "analyze", "sweep", "feasibility"])
    def test_format_flag_refused(self, command, tmp_path, capsys):
        # Every command writes one fixed set of files; no flag picks among them.
        cfg = write_config(tmp_path / "c.json", event_ready_config(10))
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", cfg, "--out", str(tmp_path), "--format", "json"])
        assert exit_info.value.code == 2
        assert "--format" in capsys.readouterr().err


#: The simulate config that writes the directory a shipped analyze or window-sweep config reads.
SHIPPED_SOURCES = {"out/pearle": "pearle_anomaly_source.json", "out/lg": "larsson_gill_source.json"}
#: The command that reads a config, by the section it holds.
COMMAND_OF = {"protocol": "simulate", "inputs": "analyze", "sweep": "sweep", "contexts": "feasibility"}


def shipped(name: str) -> dict:
    """Shipped config ``name`` at a smoke size: 2000 trials, 5000 emissions, 1000 draws per sweep point."""
    config = json.loads((REPO / "configs" / name).read_text())
    proto, sweep = config.get("protocol", {}), config.get("sweep", {})
    if proto.get("kind") == "event_ready":
        proto["n_trials"] = 2000
    if proto.get("kind") == "source":
        proto["duration"] = 5000 / proto["pair_rate"]
    if "n_per_point" in sweep:
        sweep["n_per_point"] = 1000
    return config


@pytest.mark.parametrize("name", sorted(path.name for path in (REPO / "configs").glob("*.json")))
def test_shipped_config_runs(tmp_path, monkeypatch, name):
    """Every shipped config runs through its command; one that reads time tags runs on the
    simulate output it names, written where it names it (paths are relative to the repo root)."""
    config = shipped(name)
    monkeypatch.chdir(tmp_path)
    files = config.get("inputs", config.get("sweep", {}))
    if "timetags_a" in files:
        out = Path(files["timetags_a"]).parent.as_posix()
        source = write_config(tmp_path / "source.json", shipped(SHIPPED_SOURCES[out]))
        assert main(["simulate", "--config", source, "--out", out]) == 0
    (command,) = (COMMAND_OF[key] for key in config if key in COMMAND_OF)
    assert main([command, "--config", write_config(tmp_path / name, config), "--out", "run"]) == 0
