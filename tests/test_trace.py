"""The benchmark's in-process tracer on tiny simulate -> analyze chains.

``perfbench/inproc.py`` rebinds the layer functions by name and reads the
metadata of their results, so a renamed function or meta key would leave its
per-layer metrics silently at zero, and it replays each protocol call with the
arguments it recorded. This runs it traced, as the benchmark does, on a source
chain with a windowed analysis, on an event-ready chain and on a window sweep
with each pairing strategy. The report's tests run inside ``analysis.report``,
so their spans must be recorded there, under the ``analysis`` names the
per-layer metrics read; each width of a sweep must record its pairing,
post-selection and tally.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _traced(tmp_path, configs: dict) -> dict:
    """The tracer's result document for one traced phase per command of ``configs``, in order."""
    phases = []
    for command, cfg in configs.items():
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(cfg))
        phases.append([command, "--config", str(config), "--out", str(tmp_path)])
    (tmp_path / "phases.json").write_text(json.dumps(phases))
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    script, result = REPO / "perfbench" / "inproc.py", tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "phases.json"), str(result), "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text())
    assert [(p["phase"], p["rc"]) for p in doc["phases"]] == [(command, 0) for command in configs]
    return doc


def test_traced_chain_records_every_layer(tmp_path):
    sim = json.loads((REPO / "configs" / "pearle_anomaly_source.json").read_text())
    sim["protocol"]["duration"] = 0.01
    inputs = {name: str(tmp_path / f"{name}.csv") for name in ("timetags_a", "timetags_b")}
    inputs["window"] = {"width_ns": 15, "strategy": "lattice"}
    doc = _traced(tmp_path, {"simulate": sim, "analyze": {"seed": sim["seed"], "inputs": inputs}})
    spans = doc["spans"]
    # perfbench pins protocol.events and replays the run at one thread by this name.
    (source,) = [s for s in spans if s["name"] == "protocol.run_source_experiment"]
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert source["events"] == meta["counts"]["events_a"] + meta["counts"]["events_b"] > 0
    assert "protocol.run_source_experiment" in doc["single_thread_s"]
    names = {s["name"] for s in spans}
    assert "core.from_arrays" in names
    matches = [s for s in spans if s["name"] == "pipeline.match_lattice"]
    assert matches and all(s["matched"] > 0 for s in matches)
    postselects = [s for s in spans if s["name"] == "pipeline.postselect"]
    assert postselects and all(0 < s["retained"] <= s["input_rows"] for s in postselects)
    (report,) = [s for s in spans if s["name"] == "analysis.report"]
    inside = {s["name"] for s in spans if s["parent"] == report["id"]}
    assert {"core.estimate", "analysis.lhv_pvalue", "analysis.nosignalling_test"} <= inside


def test_traced_event_ready_chain(tmp_path):
    sim = json.loads((REPO / "configs" / "tsirelson_event_ready.json").read_text())
    sim["protocol"]["n_trials"] = 2000
    inputs = {"trials": str(tmp_path / "trials.csv")}
    doc = _traced(tmp_path, {"simulate": sim, "analyze": {"seed": sim["seed"], "inputs": inputs}})
    spans = doc["spans"]
    # perfbench pins protocol.events on this workload and replays the run at one thread.
    (run,) = [s for s in spans if s["name"] == "protocol.run_event_ready"]
    assert run["events"] == 2000
    assert "protocol.run_event_ready" in doc["single_thread_s"]
    names = {s["name"] for s in spans}
    assert {"io.write_trials_csv", "io.read_trials_csv"} <= names


@pytest.mark.parametrize("strategy", ["lattice", "greedy"])
def test_traced_window_sweep_records_each_width(tmp_path, strategy):
    sim = json.loads((REPO / "configs" / "pearle_anomaly_source.json").read_text())
    sim["protocol"]["duration"] = 0.01
    streams = {name: str(tmp_path / f"{name}.csv") for name in ("timetags_a", "timetags_b")}
    sweep = {"kind": "window", **streams, "strategy": strategy, "windows_ns": [8, 30]}
    doc = _traced(tmp_path, {"simulate": sim, "sweep": {"seed": sim["seed"], "sweep": sweep}})
    (root,) = [s for s in doc["spans"] if s["name"] == "pipeline.window_sweep"]
    # Spans are numbered on entry, so a parent comes before its children.
    below, inside = {root["id"]}, []
    for span in doc["spans"]:
        if span["parent"] in below:
            below.add(span["id"])
            inside.append(span)
    # Each width's spans start at its pairing.
    starts = [i for i, s in enumerate(inside) if s["name"].startswith("pipeline.match_")]
    assert len(starts) == 2
    for lo, hi in zip(starts, starts[1:] + [len(inside)]):
        match, width = inside[lo], inside[lo:hi]
        assert match["name"] == f"pipeline.match_{strategy}" and match["matched"] > 0
        (post,) = [s for s in width if s["name"] == "pipeline.postselect"]
        assert 0 < post["retained"] <= post["input_rows"]
        assert "core.from_arrays" in {s["name"] for s in width}
