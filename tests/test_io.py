"""File format round trips and header validation."""

import numpy as np
import pytest
from helpers import savetxt_int_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from belllab import io as bio
from belllab.core import CANONICAL_ANGLES
from belllab.errors import ConfigError
from belllab.pipeline import PairedRawData
from belllab.protocol import EventReadyConfig, EventReadyRun, RawEventStream, run_event_ready

INT64 = np.iinfo(np.int64)


def test_trials_round_trip(tmp_path):
    run = run_event_ready(EventReadyConfig(herald_prob=0.9), CANONICAL_ANGLES, 300, seed=1)
    path = tmp_path / "trials.csv"
    bio.write_trials_csv(path, run, seed=1)
    x, y, a, b = bio.read_trials_csv(path)
    assert (x == run.x).all() and (y == run.y).all()
    assert (a == run.a).all() and (b == run.b).all()


def test_timetags_round_trip(tmp_path):
    stream = RawEventStream(
        station="B",
        times=np.array([-5, 0, 7, 7, 123456789], dtype=np.int64),
        settings=np.array([0, 1, 1, 0, 1], dtype=np.int8),
        outcomes=np.array([1, -1, 1, 1, -1], dtype=np.int8),
    )
    path = tmp_path / "tags.csv"
    bio.write_timetags_csv(path, stream, seed=9)
    back = bio.read_timetags_csv(path)
    assert back.station == "B"
    assert (back.times == stream.times).all()
    assert (back.settings == stream.settings).all()
    assert (back.outcomes == stream.outcomes).all()


def test_pairs_round_trip_preserves_unknown_sentinel(tmp_path):
    pairs = PairedRawData(
        x=np.array([0, 1, -1], dtype=np.int8),
        y=np.array([1, -1, 0], dtype=np.int8),
        a=np.array([1, -1, 0], dtype=np.int8),
        b=np.array([-1, 0, 1], dtype=np.int8),
    )
    path = tmp_path / "pairs.csv"
    bio.write_pairs_csv(path, pairs, seed=2)
    back = bio.read_pairs_csv(path)
    assert (back.x == pairs.x).all() and (back.y == pairs.y).all()
    assert back.n_unattributed == 2


INT64_CELLS = st.one_of(
    st.sampled_from([INT64.min, INT64.min + 1, -10, -1, 0, 1, 9, 10, INT64.max]),
    st.integers(INT64.min, INT64.max),
)


@given(
    hnp.arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 4)),
        elements=INT64_CELLS,
    )
)
@example(np.zeros((0, 2), dtype=np.int64))
@example(np.array([[INT64.min, INT64.max, 0]]))
@settings(max_examples=200, deadline=None)
def test_int_csv_matches_savetxt(tmp_path_factory, rows):
    columns = {f"c{i}": rows[:, i] for i in range(rows.shape[1])}
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    bio._int_csv(path, "# header", columns)
    assert path.read_bytes() == savetxt_int_csv("# header", columns)


def test_writers_stream_row_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(bio, "BLOCK_ROWS", 4)
    n = 2 * bio.BLOCK_ROWS + 3
    rng = np.random.default_rng(5)

    def codes(values):
        return rng.choice(values, size=n).astype(np.int8)

    run = EventReadyRun(codes([0, 1]), codes([0, 1]), codes([-1, 1]), codes([-1, 1]), {})
    bio.write_trials_csv(tmp_path / "trials.csv", run, seed=1)
    columns = {"trial_id": np.arange(n), "x": run.x, "y": run.y, "a": run.a, "b": run.b}
    expected = savetxt_int_csv(bio._header("trials", 1), {**columns, "ready": np.ones(n)})
    assert (tmp_path / "trials.csv").read_bytes() == expected
    back = bio.read_trials_csv(tmp_path / "trials.csv")
    assert all((u == v).all() for u, v in zip(back, (run.x, run.y, run.a, run.b)))

    times = np.sort(rng.integers(INT64.min, INT64.max, size=n))
    stream = RawEventStream("A", times, codes([0, 1]), codes([-1, 1]))
    bio.write_timetags_csv(tmp_path / "tags.csv", stream, seed=2)
    columns = {"time_ns": stream.times, "setting": stream.settings, "outcome": stream.outcomes}
    expected = savetxt_int_csv(bio._header("timetags", 2, station="A"), columns)
    assert (tmp_path / "tags.csv").read_bytes() == expected
    back = bio.read_timetags_csv(tmp_path / "tags.csv")
    assert all((getattr(back, k) == getattr(stream, k)).all() for k in ("times", "settings", "outcomes"))

    pairs = PairedRawData(x=codes([-1, 0, 1]), y=codes([-1, 0, 1]), a=codes([-1, 0, 1]), b=codes([-1, 0, 1]))
    bio.write_pairs_csv(tmp_path / "pairs.csv", pairs, seed=3)
    columns = {k: getattr(pairs, k) for k in "xyab"}
    assert (tmp_path / "pairs.csv").read_bytes() == savetxt_int_csv(bio._header("pairs", 3), columns)
    back = bio.read_pairs_csv(tmp_path / "pairs.csv")
    assert all((getattr(back, k) == getattr(pairs, k)).all() for k in "xyab")


def test_empty_stream_round_trip(tmp_path):
    stream = RawEventStream(
        station="A",
        times=np.zeros(0, dtype=np.int64),
        settings=np.zeros(0, dtype=np.int8),
        outcomes=np.zeros(0, dtype=np.int8),
    )
    path = tmp_path / "empty.csv"
    bio.write_timetags_csv(path, stream, seed=3)
    assert len(bio.read_timetags_csv(path)) == 0


def test_blank_body_reads_as_zero_rows(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text(f"{bio._header('pairs', 1)}\nx,y,a,b\n\n  \n\n")
    assert len(bio.read_pairs_csv(path)) == 0


def test_header_kind_mismatch_rejected(tmp_path):
    run = run_event_ready(EventReadyConfig(herald_prob=1.0), CANONICAL_ANGLES, 5, seed=1)
    path = tmp_path / "trials.csv"
    bio.write_trials_csv(path, run, seed=1)
    with pytest.raises(ConfigError, match="kind"):
        bio.read_timetags_csv(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_ns,setting,outcome\n1,0,1\n")
    with pytest.raises(ConfigError, match="header"):
        bio.read_timetags_csv(path)


def test_wrong_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# belllab schema_version=1 kind=timetags seed=1 station=A\nt,s\n1,0\n")
    with pytest.raises(ConfigError, match="columns"):
        bio.read_timetags_csv(path)


def _csv(path, header, columns, rows):
    path.write_text(f"# belllab schema_version=1 {header}\n{columns}\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("row", ["9,257,1", "9,0,255", "9,2,1", "9,0,0"])
def test_timetags_codes_checked_before_narrowing(tmp_path, row):
    # An int8 cast reads setting 257 as 1 and outcome 255 as -1.
    path = _csv(tmp_path / "tags.csv", "kind=timetags seed=1 station=A", "time_ns,setting,outcome", ["1,0,1", row])
    with pytest.raises(ConfigError, match="tags.csv"):
        bio.read_timetags_csv(path)


@pytest.mark.parametrize("row", ["0,0,255,1", "0,0,1,-255", "257,0,1,1", "0,2,1,1"])
def test_pairs_codes_checked_before_narrowing(tmp_path, row):
    path = _csv(tmp_path / "pairs.csv", "kind=pairs seed=1", "x,y,a,b", ["0,1,1,-1", row])
    with pytest.raises(ConfigError, match="pairs.csv"):
        bio.read_pairs_csv(path)


def test_ready_trial_with_zero_outcome_rejected(tmp_path):
    columns = "trial_id,x,y,a,b,ready"
    ok = _csv(tmp_path / "ok.csv", "kind=trials seed=1", columns, ["0,0,1,1,-1,1", "1,1,0,0,0,0"])
    x, y, a, b = bio.read_trials_csv(ok)  # not-ready rows may carry zeros; they are dropped
    assert list(a) == [1] and list(b) == [-1]
    for row in ("1,1,0,0,1,1", "1,1,0,1,0,1", "1,1,0,1,1,2"):
        path = _csv(tmp_path / "bad.csv", "kind=trials seed=1", columns, ["0,0,1,1,-1,1", row])
        with pytest.raises(ConfigError, match="bad.csv"):
            bio.read_trials_csv(path)
