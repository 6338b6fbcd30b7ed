#!/usr/bin/env python3
"""End-to-end benchmark of the belllab command line, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload event_ready --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --smoke

A workload is a chain of three CLI phases, simulate -> analyze -> sweep, on
configs derived from the shipped ones (sizes and the reasons for each
workload are in workloads.json). Each phase is a fresh
``python -m belllab.cli`` process, started one at a time from this single
process: a closed loop with one client. BELLLAB_THREADS is the number of
usable cores. One repetition first times a fresh ``belllab --version``,
the set-up every phase pays, then the three phases. Repetitions run until
``--seconds`` is spent, and at least twice; every reported value is a median
over them.

``--trace 1`` runs the phases in-process instead (inproc.py), alternating a
child without tracing and a child whose layer functions are wrapped. It
reports per-layer self times and exact counts from the traced child, and the
tracing overhead as traced minus untraced phase time.

Every phase passes a correctness gate or counts as failed: exit code 0, the
pairing conservation identities, the CHSH and theta-sweep bounds, and data
files whose sha256 repeats across repetitions and, for the default seed,
matches the digests pinned in workloads.json. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.

``--smoke`` runs every workload at a small size in both modes, and checks
that every metric declared in BENCHMARK.json is printed with its unit and
that the gate passes good outputs and rejects broken ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
WORK = ROOT / ".perfbench_work"
THREADS = len(os.sched_getaffinity(0))
RUN_LIMIT_S = 170.0  # every child is killed by then, inside the 180 s a run may take
MIN_REPS = 2  # so that every reported median rests on more than one sample

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "sweep_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Self time of the spans of one function, summed over the three phases.
SPAN_TIMES = (
    "io.write_trials_csv",
    "io.read_trials_csv",
    "io.write_timetags_csv",
    "io.write_pairs_csv",
    "io.read_timetags_csv",
    "io.read_pairs_csv",
    "pipeline.match_lattice",
    "pipeline.match_greedy",
    "pipeline.window_sweep",
    "pipeline.postselect",
    "protocol.run_event_ready",
    "protocol.run_source_experiment",
    "couplings.sample_batch",
    "core.from_arrays",
    "core.estimate",
    "analysis.theta_sweep",
    "analysis.lhv_pvalue",
    "analysis.nosignalling_test",
)

#: Counts that must repeat exactly for one seed.
COUNTS = {
    "protocol.events": "count",
    "pipeline.matched": "count",
    "pipeline.match_yield": "ratio",
    "pipeline.retained_frac": "ratio",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
}

PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    "protocol.run_event_ready_1t_s": "s",
    "protocol.run_source_experiment_1t_s": "s",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "io.write_mb_per_s": "MB/s",
    "io.read_mb_per_s": "MB/s",
    **COUNTS,
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

DATA_FILES = {
    "event_ready": {"simulate": ("trials.csv",), "sweep": ("sweep.csv",)},
    "source": {
        "simulate": ("timetags_a.csv", "timetags_b.csv", "raw_pairs.csv"),
        "sweep": ("windows.csv",),
    },
}


def _shipped(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text())


def phase_configs(name: str, size: dict) -> dict[str, dict]:
    """The simulate, analyze and sweep configs of a workload, from the shipped ones."""
    if name == "event_ready":
        simulate = _shipped("tsirelson_event_ready.json")
        simulate["protocol"]["n_trials"] = size["n_trials"]
        sweep = _shipped("theta_sweep.json")
        sweep["sweep"]["n_per_point"] = size["n_per_point"]
        analyze = {"inputs": {"trials": "simulate/trials.csv"}}
        return {"simulate": simulate, "analyze": analyze, "sweep": sweep}
    source, analyze = {
        "pearle_window": ("pearle_anomaly_source.json", "pearle_anomaly_analyze.json"),
        "lg_greedy": ("larsson_gill_source.json", "larsson_gill_analyze.json"),
    }[name]
    streams = {"timetags_a": "simulate/timetags_a.csv", "timetags_b": "simulate/timetags_b.csv"}
    simulate = _shipped(source)
    simulate["protocol"].update(pair_rate=size["pair_rate"], duration=size["duration"])
    analyze = _shipped(analyze)
    analyze["inputs"].update(streams, raw_pairs="simulate/raw_pairs.csv")
    sweep = _shipped("window_sweep.json")
    sweep["sweep"].update(streams, strategy=size["strategy"], windows_ns=size["windows_ns"])
    return {"simulate": simulate, "analyze": analyze, "sweep": sweep}


def items(name: str, size: dict) -> int:
    """Trials (event-ready) or emissions (source runs) one repetition works through."""
    if name == "event_ready":
        return size["n_trials"]
    return round(size["pair_rate"] * size["duration"])


# --- correctness gate ----------------------------------------------------------


def check_report(name: str, size: dict, report: dict) -> list[str]:
    """Gate an analyze report.json; returns the violations found."""
    s_abs = report.get("chsh_abs")
    if s_abs is None:
        return ["analyze: CHSH is undefined"]
    if name == "event_ready":
        if not abs(s_abs - 2 * math.sqrt(2)) < size["s_tol"]:
            return [f"analyze: |S| = {s_abs!r} is not within {size['s_tol']} of 2*sqrt(2)"]
        return []
    errors = []
    final = report["window"]["pairing"]
    pairing = final["pairing"]
    for side in ("a", "b"):
        used = pairing["matched"] + pairing[f"one_sided_{side}"] + pairing[f"dropped_extra_{side}"]
        events = pairing[f"events_{side}"]
        if used != events:
            errors.append(f"analyze: station {side}: {used} events paired or dropped, {events} in")
    if final["retained_rows"] + final["dropped_rows"] != final["input_rows"]:
        errors.append(f"analyze: retained + dropped rows != input rows in {final}")
    if not s_abs > 2:
        errors.append(f"analyze: post-selected |S| = {s_abs!r} does not exceed 2")
    return errors


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[2:]]  # after the header comment and column names


def check_phase(name: str, size: dict, config: dict, phase: str, out: Path) -> list[str]:
    """Gate the outputs of one phase that exited 0."""
    try:
        if phase == "simulate":
            counts = json.loads((out / "metadata.json").read_text())["counts"]
            key = "n_trials" if name == "event_ready" else "n_emissions"
            if counts[key] != items(name, size):
                return [f"simulate: {key} = {counts[key]}, expected {items(name, size)}"]
            return []
        if phase == "analyze":
            return check_report(name, size, json.loads((out / "report.json").read_text()))
        if name == "event_ready":
            rows = _csv_rows(out / "sweep.csv")
            expected = config["sweep"]["thetas"]["count"]
            worst = max(abs(float(e) + math.cos(float(t))) for t, e, _, _ in rows)
            if len(rows) != expected or not worst < size["theta_tol"]:
                return [f"sweep: {len(rows)} points, max |E + cos(theta)| = {worst!r}"]
            return []
        rows = _csv_rows(out / "windows.csv")
        if len(rows) != len(size["windows_ns"]):
            return [f"sweep: {len(rows)} window rows, expected {len(size['windows_ns'])}"]
        return []
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{phase}: unreadable output: {e!r}"]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --- one run of one workload ------------------------------------------------------


class Bench:
    """Work directory, child processes, correctness gate and tallies of one run."""

    def __init__(self, name: str, seed: int, size_key: str) -> None:
        self.name = name
        self.size = SPEC["workloads"][name]["sizes"][size_key]
        pinned = SPEC["workloads"][name]["pinned"][size_key] if seed == SPEC["default_seed"] else {}
        # Expected digests and counts: pinned ones, else the first observed in this run.
        self.digests = dict(pinned.get("digests", {}))
        self.counts = dict(pinned.get("counts", {}))
        self.files = DATA_FILES["event_ready" if name == "event_ready" else "source"]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = self.failed = 0

        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.configs = phase_configs(name, self.size)
        for phase, config in self.configs.items():
            (self.work / f"{phase}.json").write_text(json.dumps(config, indent=2))
        self.phases = [
            [phase, "--config", f"{phase}.json", "--seed", str(seed), "--out", phase]
            for phase in self.configs
        ]
        (self.work / "phases.json").write_text(json.dumps(self.phases))
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {
            **os.environ,
            "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}",
            "BELLLAB_THREADS": str(THREADS),
        }

    def spawn(self, argv: list[str]) -> tuple[float, float, int]:
        """Run a child to completion: wall seconds, peak RSS in MB, exit code."""
        with open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def cli(self, args: list[str]) -> tuple[float, float, int]:
        wall, rss, rc = self.spawn([sys.executable, "-m", "belllab.cli", *args])
        self.record(args[0], rc)
        return wall, rss, rc

    def record(self, phase: str, rc: int) -> None:
        """Count one process and gate what it wrote."""
        errors = [] if rc == 0 else [f"{phase}: exit code {rc}"]
        if rc == 0 and phase in self.configs:
            errors += check_phase(self.name, self.size, self.configs[phase], phase, self.work / phase)
        for file in self.files.get(phase, ()) if not errors else ():
            digest = _sha256(self.work / phase / file)
            expected = self.digests.setdefault(file, digest)
            if digest != expected:
                errors.append(f"{phase}: {file} sha256 {digest} != expected {expected}")
        self._tally(errors)

    def check_counts(self, counts: dict) -> None:
        """One more operation: exact counts equal the pinned ones, or the first seen in this run."""
        errors = []
        for key, value in counts.items():
            expected = self.counts.setdefault(key, value)
            if value != expected:
                errors.append(f"count {key} = {value!r} != expected {expected!r}")
        self._tally(errors)

    def _tally(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"FAILED {self.name} {e}", file=sys.stderr)

    def inproc(self, traced: bool) -> dict | None:
        """Run the three phases in one child process; its result, or None if it died."""
        result = self.work / f"inproc_{'traced' if traced else 'plain'}.json"
        result.unlink(missing_ok=True)
        script = str(HERE / "inproc.py")
        _, _, rc = self.spawn([sys.executable, script, "phases.json", result.name, "1" if traced else "0"])
        doc = json.loads(result.read_text()) if rc == 0 and result.exists() else None
        for i, args in enumerate(self.phases):
            self.record(args[0], doc["phases"][i]["rc"] if doc else rc or 3)
        return doc


def measure_cli(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics: medians over repetitions of fresh CLI processes."""
    bench.cli(["--version"])  # warm-up: the first start in a checkout compiles bytecode
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    n_items = items(bench.name, bench.size)
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        samples["setup_s"].append(bench.cli(["--version"])[0])
        walls, rss = [], []
        for args in bench.phases:
            wall, maxrss, _ = bench.cli(args)
            samples[f"{args[0]}_s"].append(wall)
            walls.append(wall)
            rss.append(maxrss)
        samples["items_per_s"].append(n_items / sum(walls))
        samples["peak_rss_mb"].append(max(rss))
        reps = len(samples["setup_s"])
        now = time.monotonic()
        if reps >= MIN_REPS and now - start + (now - t0) > seconds:
            break
    lines = [f"{reps} repetitions, per repetition:"]
    lines += [f"{name:<12} {' '.join(f'{v:10.4f}' for v in values)}" for name, values in samples.items()]
    return {name: statistics.median(values) for name, values in samples.items()}, lines


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    self_s = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]
    return self_s


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer self times and exact counts of one traced child."""
    spans = doc["spans"]
    self_s = _self_times(spans)
    by_name: dict[str, float] = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + self_s[s["id"]]

    def total(key: str, prefix: str) -> int:
        return sum(s.get(key, 0) for s in spans if s["name"].startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    write_s = sum(t for n, t in by_name.items() if n.startswith("io.write_"))
    read_s = sum(t for n, t in by_name.items() if n.startswith("io.read_"))
    single = doc["single_thread_s"]
    matched = total("matched", "pipeline.match_")
    metrics = {f"{name}_s": by_name.get(name, 0.0) for name in SPAN_TIMES}
    metrics.update(
        {
            "protocol.run_event_ready_1t_s": single.get("protocol.run_event_ready", 0.0),
            "protocol.run_source_experiment_1t_s": single.get("protocol.run_source_experiment", 0.0),
            "cli.self_s": sum(t for n, t in by_name.items() if n.startswith("cli.")),
            "cli.import_s": doc["import_s"],
            "io.write_mb_per_s": ratio(total("bytes", "io.write_") / 1e6, write_s),
            "io.read_mb_per_s": ratio(total("bytes", "io.read_") / 1e6, read_s),
            "protocol.events": total("events", "protocol."),
            "pipeline.matched": matched,
            "pipeline.match_yield": ratio(matched, total("min_events", "pipeline.match_")),
            "pipeline.retained_frac": ratio(
                total("retained", "pipeline.postselect"), total("input_rows", "pipeline.postselect")
            ),
            "io.bytes_written": total("bytes", "io.write_"),
            "io.bytes_read": total("bytes", "io.read_"),
        }
    )
    return metrics


def share_table(doc: dict) -> list[str]:
    """Self time of every span name, as a share of its phase's wall time."""
    spans = doc["spans"]
    self_s = _self_times(spans)
    root = {}
    for s in spans:
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
    lines = []
    for phase_span in (s for s in spans if s["parent"] is None):
        wall = phase_span["end"] - phase_span["start"]
        per_name: dict[str, float] = {}
        for s in spans:
            if root[s["id"]] == phase_span["id"]:
                per_name[s["name"]] = per_name.get(s["name"], 0.0) + self_s[s["id"]]
        lines.append(f"{phase_span['name']}: {wall:.4f} s")
        for n, t in sorted(per_name.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {n:<34} {t:10.4f} s {100 * t / wall:6.2f} %")
    return lines


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics: pairs of in-process children, untraced and traced."""
    bench.cli(["--version"])  # warm-up, as in the untraced run
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            doc = bench.inproc(with_trace)
            if doc is not None:
                (traced if with_trace else plain).append(doc)
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    if not traced or not plain:
        return {name: 0.0 for name in PER_LAYER}, ["no traced or untraced child completed"]

    per_child = [layer_metrics(doc) for doc in traced]
    for metrics in per_child:
        bench.check_counts({key: metrics[key] for key in COUNTS})
    metrics = {name: statistics.median(m[name] for m in per_child) for name in per_child[0]}
    metrics.update({key: per_child[0][key] for key in COUNTS})  # exact, checked equal above
    on = statistics.median(sum(p["wall_s"] for p in doc["phases"]) for doc in traced)
    off = statistics.median(sum(p["wall_s"] for p in doc["phases"]) for doc in plain)
    metrics["trace.overhead_s"] = on - off
    metrics["trace.overhead_frac"] = (on - off) / off
    last = traced[-1]
    lines = [
        f"env: nproc={os.cpu_count()} usable_cores={THREADS} BELLLAB_THREADS={THREADS} "
        f"python={last['python']} numpy={last['numpy']}",
        f"{len(traced)} traced and {len(plain)} untraced children; phase time traced {on:.4f} s, "
        f"untraced {off:.4f} s, overhead {on - off:.4f} s",
        f"single-threaded protocol replay: {last['single_thread_s']}",
        "self time by span, share of its phase (last traced child):",
        *share_table(last),
        f"trace spans written to {bench.work / 'inproc_traced.json'}",
    ]
    return metrics, lines


def measure(name: str, seed: int, seconds: float, trace: bool, size_key: str = "bench") -> dict:
    """One benchmark run; prints its report and returns the result object."""
    bench = Bench(name, seed, size_key)
    units = PER_LAYER if trace else END_TO_END
    values, lines = (measure_traced if trace else measure_cli)(bench, seconds)
    print(f"== {name} seed={seed} size={size_key} trace={int(trace)} threads={THREADS}")
    for line in lines:
        print(line)
    for metric, unit in units.items():
        print(f"{metric:<38} {values[metric]!r} {unit}")
    failed, attempted = bench.failed, bench.attempted
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
    }


# --- smoke mode --------------------------------------------------------------------


def smoke(seed: int) -> int:
    """Small runs of every workload in both modes, plus gate self-checks."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in SPEC["workloads"]:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(name, seed, 0, trace, "smoke")
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != declared {want}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed operations")

    size = SPEC["workloads"]["pearle_window"]["sizes"]["smoke"]
    pairing = {"matched": 5, "events_a": 8, "events_b": 7, "one_sided_a": 2, "one_sided_b": 2}
    pairing.update(dropped_extra_a=1, dropped_extra_b=0)
    rows = {"input_rows": 9, "retained_rows": 5, "dropped_rows": 4}
    good = {"chsh_abs": 3.0, "window": {"pairing": {**rows, "pairing": pairing}}}
    broken = [
        {**good, "chsh_abs": 1.9},
        {**good, "window": {"pairing": {**rows, "dropped_rows": 3, "pairing": pairing}}},
        {**good, "window": {"pairing": {**rows, "pairing": {**pairing, "events_b": 8}}}},
    ]
    if check_report("pearle_window", size, good):
        problems.append("gate rejects a consistent report")
    problems += [f"gate accepts {r}" for r in broken if not check_report("pearle_window", size, r)]
    size = SPEC["workloads"]["event_ready"]["sizes"]["smoke"]
    if not check_report("event_ready", size, {"chsh_abs": 2.0}):
        problems.append("gate accepts |S| = 2 for the event-ready singlet")

    for p in problems:
        print(f"SMOKE {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small runs of every workload, then self-checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "belllab" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no belllab sources under {ROOT}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
