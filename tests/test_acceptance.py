"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete (or ``-rA`` for the captured summary).
"""

import json
import math
import time

import numpy as np
import pytest

from belllab.analysis import (
    chsh_combinations,
    coupling_feasibility,
    lhv_pvalue,
    nosignalling_test,
    pairwise_tables,
    theta_sweep,
)
from belllab.cli import main
from belllab.core import (
    CANONICAL_ANGLES,
    CONTEXTS,
    AngleAssignment,
    ContextTable,
    chsh,
    estimate,
)
from belllab.couplings import (
    QuantumSingletModel,
    disjoint_support_model,
    exact_chsh,
    max_deterministic_chsh,
    pearle_model,
    sample_batch,
)
from belllab.pipeline import (
    CoincidencePolicy,
    PairedRawData,
    match_coincidences,
    postselect,
)
from belllab.protocol import (
    EventReadyConfig,
    SourceProtocolConfig,
    run_event_ready,
    run_source_experiment,
)
from belllab.rng import stream

from helpers import random_deterministic_model, random_nosignalling_tables, random_stochastic_model

SQRT2 = math.sqrt(2)
TSIRELSON = 2 * SQRT2


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE PASS [{criterion}] {text}")


def sample_uniform_run(model, n, seed):
    g = stream(seed, "sampling", 0)
    x = g.integers(0, 2, n, dtype=np.int8)
    y = g.integers(0, 2, n, dtype=np.int8)
    a, b = sample_batch(model, x, y, stream(seed, "sampling", 1))
    return x, y, a, b


def test_criterion_1_tsirelson_value_reproduction():
    s_exact = exact_chsh(QuantumSingletModel(angles=CANONICAL_ANGLES))
    assert abs(s_exact - (-TSIRELSON)) < 1e-12

    t0 = time.perf_counter()
    n = 4_000_000  # 1e6 per context in expectation
    x, y, a, b = sample_uniform_run(QuantumSingletModel(angles=CANONICAL_ANGLES), n, seed=101)
    s_mc = chsh(estimate(ContextTable.from_arrays(x, y, a, b)))
    elapsed = time.perf_counter() - t0
    assert abs(abs(s_mc) - TSIRELSON) < 0.01
    assert elapsed < 10.0
    report(1, f"exact S = {s_exact:.12f}; MC |S| = {abs(s_mc):.4f} in {elapsed:.1f}s")


def test_criterion_2_chsh_bound_for_local_models():
    assert max_deterministic_chsh() == 2.0
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        worst = max(worst, abs(exact_chsh(random_deterministic_model(rng))))
    for _ in range(100):
        worst = max(worst, abs(exact_chsh(random_stochastic_model(rng))))
    assert worst <= 2.0 + 1e-12
    report(2, f"max deterministic |S| = 2 exactly; 200 random local models, worst |S| = {worst:.6f}")


def test_criterion_3_tsirelson_grid_bound():
    grid = np.linspace(0.0, 2 * math.pi, 10, endpoint=False)
    a0, a1, b0, b1 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    s = -(np.cos(a0 - b0) + np.cos(a0 - b1) + np.cos(a1 - b0) - np.cos(a1 - b1))
    worst = float(np.abs(s).max())
    assert s.size == 10_000
    assert worst <= TSIRELSON + 1e-9
    # Spot-check the vectorized evaluation against exact_chsh on a sub-grid.
    rng = np.random.default_rng(303)
    for _ in range(25):
        i, j, k, l = rng.integers(0, 10, 4)
        model = QuantumSingletModel(
            angles=AngleAssignment(alice=(grid[i], grid[j]), bob=(grid[k], grid[l]))
        )
        assert exact_chsh(model) == pytest.approx(float(s[i, j, k, l]), abs=1e-12)
    report(3, f"10^4 angle assignments, max |S| = {worst:.12f} <= 2*sqrt(2) + 1e-9")


def test_criterion_4_larsson_gill_reach():
    model = disjoint_support_model()
    n = 1_000_000
    x, y, a, b = sample_uniform_run(model, n, seed=404)
    raw_table = ContextTable.from_arrays(x, y, a, b)
    pairs = PairedRawData(x=x, y=y, a=a, b=b)
    final, retention = postselect(pairs)
    final_table = final.to_context_table()
    s = chsh(estimate(final_table))
    assert s is not None and abs(s) >= 3.9
    ns = nosignalling_test(raw_table, final_table)
    assert ns.raw_block_p > 0.05
    c_values = [retention[k] for k in CONTEXTS]
    report(
        4,
        f"post-selected S = {s:.4f} >= 3.9 at n = 1e6 (C per context ~ {np.mean(c_values):.3f}); "
        f"raw no-signalling block p = {ns.raw_block_p:.3f} > 0.05",
    )


def test_criterion_5_no_signalling_anomaly_reproduction():
    model = pearle_model(CANONICAL_ANGLES)
    cfg = SourceProtocolConfig(
        pair_rate=100_000.0,
        duration=1.0,
        jitter_sd=2.0,
        setting_delay_a=(0.0, 4.0),
        setting_delay_b=(0.0, 6.0),
        outcome_delay_a=(0.0, 8.0),
        outcome_delay_b=(0.0, 8.0),
    )
    policy = CoincidencePolicy(window_ns=15)
    fires = passes = 0
    seeds = range(20)
    for seed in seeds:
        out = run_source_experiment(cfg, model, seed=seed)
        raw_table = out.truth.to_context_table()
        matched = match_coincidences(out.stream_a, out.stream_b, policy)
        final, _ = postselect(matched)
        rep = nosignalling_test(raw_table, final.to_context_table())
        fires += rep.final_block_p is not None and rep.final_block_p < 0.01
        passes += rep.raw_block_p is not None and rep.raw_block_p > 0.05
    assert fires >= 18  # >= 90% of 20 seeds
    assert passes >= 18
    report(5, f"final-data tests fire in {fires}/20 seeds; raw-data tests pass in {passes}/20 seeds")


def test_criterion_6_event_ready_calibration():
    results = []
    for target, tol in ((2.0747, 0.02), (2.578, 0.05)):
        model = QuantumSingletModel(CANONICAL_ANGLES, visibility=target / TSIRELSON)
        run = run_event_ready(EventReadyConfig(1_000_000, herald_prob=1.0), model, seed=606)
        s = chsh(estimate(ContextTable.from_arrays(run.x, run.y, run.a, run.b)))
        assert abs(abs(s) - target) < tol
        results.append(f"|S| = {abs(s):.4f} (target {target} +/- {tol})")
    report(6, "; ".join(results))


def test_criterion_7_sinusoidal_sweep():
    def factory(theta):
        return QuantumSingletModel(angles=AngleAssignment(alice=(theta, 0.0), bob=(0.0, 0.0)))

    thetas = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    points = theta_sweep(factory, thetas, n_trials=100_000, seed=707)
    worst = max(abs(p.e_ab - (-math.cos(p.theta))) for p in points)
    assert worst < 0.015
    report(7, f"32-point sweep at n = 1e5/point: max |E - (-cos theta)| = {worst:.4f} < 0.015")


def test_criterion_8_feasibility_correctness():
    # Singlet canonical table: infeasible with CHSH-sized slack.
    singlet_tables = pairwise_tables(QuantumSingletModel(angles=CANONICAL_ANGLES))
    result = coupling_feasibility(singlet_tables)
    assert not result.feasible
    assert result.certificate.slack >= TSIRELSON - 2 - 1e-9

    # Every random local model's table is feasible with tight margins.
    rng = np.random.default_rng(808)
    worst_margin = 0.0
    for i in range(100):
        model = random_deterministic_model(rng) if i % 2 else random_stochastic_model(rng)
        r = coupling_feasibility(pairwise_tables(model))
        assert r.feasible
        worst_margin = max(worst_margin, r.margin_error)
    assert worst_margin < 1e-9

    # LP verdict matches the 8-inequality enumeration on no-signalling tables.
    rng = np.random.default_rng(809)
    mismatches = 0
    n_feasible = 0
    for _ in range(1000):
        tables = random_nosignalling_tables(rng)
        by_lp = coupling_feasibility(tables).feasible
        by_enum = max(abs(c) for c in chsh_combinations(tables)) <= 2.0
        mismatches += by_lp != by_enum
        n_feasible += by_enum
    assert mismatches == 0
    report(
        8,
        f"singlet slack = {result.certificate.slack:.9f}; 100 LHV witnesses, worst margin "
        f"{worst_margin:.2e}; 1000 no-signalling tables ({n_feasible} feasible) all match enumeration",
    )


def test_criterion_9_p_value_validity():
    rng = np.random.default_rng(909)
    false_positives = 0
    runs = 1000
    for _ in range(runs):
        model = random_deterministic_model(rng, n_hidden=4)
        g = np.random.default_rng(rng.integers(2**63))
        x = g.integers(0, 2, 10_000, dtype=np.int8)
        y = g.integers(0, 2, 10_000, dtype=np.int8)
        a, b = sample_batch(model, x, y, g)
        rep = lhv_pvalue(estimate(ContextTable.from_arrays(x, y, a, b)))
        false_positives += rep.p_value < 0.05
    rate = false_positives / runs
    assert rate <= 0.05
    report(9, f"1000 LHV runs at N = 1e4: fraction with p < 0.05 is {rate:.3f} <= 0.05")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "seed": 1010,
                "protocol": {
                    "kind": "source",
                    "pair_rate": 150_000.0,
                    "duration": 1.0,
                    "jitter_sd": 2.0,
                    "dark_rate": 100.0,
                    "setting_delay": {"alice": [0.0, 4.0], "bob": [0.0, 6.0]},
                    "outcome_delay": {"alice": [0.0, 8.0], "bob": [0.0, 8.0]},
                },
                "model": {
                    "family": "pearle",
                    "angles": {
                        "alice": [0.0, 1.5707963267948966],
                        "bob": [0.7853981633974483, -0.7853981633974483],
                    },
                },
            }
        )
    )
    files = ("timetags_a.csv", "timetags_b.csv", "raw_pairs.csv", "metadata.json")
    digests = {}
    for run, threads in (("d1", "1"), ("d2", "5"), ("d3", "2")):
        monkeypatch.setenv("BELLLAB_THREADS", threads)
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / run)]) == 0
        digests[run] = [(tmp_path / run / f).read_bytes() for f in files]
    assert digests["d1"] == digests["d2"] == digests["d3"]

    an_cfg = tmp_path / "an.json"
    an_cfg.write_text(
        json.dumps(
            {
                "seed": 1010,
                "inputs": {
                    "timetags_a": str(tmp_path / "d1" / "timetags_a.csv"),
                    "timetags_b": str(tmp_path / "d1" / "timetags_b.csv"),
                    "raw_pairs": str(tmp_path / "d1" / "raw_pairs.csv"),
                    "window": {"width_ns": 15, "strategy": "lattice"},
                },
            }
        )
    )
    reports = []
    for run, threads in (("r1", "1"), ("r2", "6")):
        monkeypatch.setenv("BELLLAB_THREADS", threads)
        assert main(["analyze", "--config", str(an_cfg), "--out", str(tmp_path / run)]) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1]
    report(10, "simulate and analyze outputs byte-identical across repeats and worker counts 1/2/5/6")
