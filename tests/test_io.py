"""File format round trips and header validation."""

import numpy as np
import pytest

from belllab import io as bio
from belllab.core import CANONICAL_ANGLES
from belllab.errors import ConfigError
from belllab.pipeline import PairedRawData
from belllab.protocol import EventReadyConfig, RawEventStream, run_event_ready


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
