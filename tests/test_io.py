"""File format round trips and header validation."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import savetxt_int_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from belllab import io as bio
from belllab.analysis import nosignalling_test
from belllab.core import CANONICAL_ANGLES, CONTEXTS, ContextTable, estimate
from belllab.couplings import QuantumSingletModel
from belllab.errors import ConfigError
from belllab.pipeline import PairedRawData, RawEventStream
from belllab.protocol import EventReadyConfig, run_event_ready

INT64 = np.iinfo(np.int64)


def test_trials_round_trip(tmp_path):
    run = run_event_ready(EventReadyConfig(300, herald_prob=0.9), QuantumSingletModel(CANONICAL_ANGLES), seed=1)
    path = tmp_path / "trials.csv"
    bio.write_trials_csv(path, run, seed=1)
    back = bio.read_trials_csv(path)
    assert all((getattr(back, k) == getattr(run, k)).all() for k in "xyab")


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
    assert int(((back.x < 0) | (back.y < 0)).sum()) == 2


INT64_CELLS = st.one_of(
    # The writer divides in uint32 below 2**32 and in uint64 from there on.
    st.sampled_from(
        [INT64.min, INT64.min + 1, -(2**32), 1 - 2**32, -10, -1, 0, 1, 9, 10, 2**32 - 1, 2**32, INT64.max]
    ),
    st.integers(INT64.min, INT64.max),
)


@given(
    hnp.arrays(
        np.int64,
        st.tuples(st.integers(0, 40), st.integers(1, 4)),
        elements=INT64_CELLS,
    ),
    st.integers(1, 9),
)
@example(np.zeros((0, 2), dtype=np.int64), 4)
@example(np.array([[INT64.min, INT64.max, 0]]), 4)
@example(np.array([[2**32 - 1], [2**32], [0], [INT64.min]]), 1)
@example(np.array([[0, 2**32 - 1], [9, -(2**32)], [INT64.max, -1]]), 2)
@settings(max_examples=300, deadline=None)
def test_int_csv_matches_savetxt(tmp_path_factory, rows, block_rows):
    # Every block picks its own width and division dtype; the bytes must not show it.
    columns = {f"c{i}": rows[:, i] for i in range(rows.shape[1])}
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    with mock.patch.object(bio, "BLOCK_ROWS", block_rows):
        bio._int_csv(path, "# header", columns)
    assert path.read_bytes() == savetxt_int_csv("# header", columns)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_int_csv_formats_each_integer_width_to_its_extremes(tmp_path, dtype):
    # Each column is formatted in its own width, where abs() wraps the minimum onto itself.
    info = np.iinfo(dtype)
    column = np.array([info.min, info.min + 1, -10, -1, 0, 9, 10, info.max], dtype=dtype)
    columns = {"code": column, "wide": column.astype(np.int64)}
    bio._int_csv(tmp_path / "rows.csv", "# header", columns)
    assert (tmp_path / "rows.csv").read_bytes() == savetxt_int_csv("# header", columns)


def test_int_csv_crosses_block_rows(tmp_path):
    # The first block fits uint32, the second does not, and the last block is short.
    n = bio.BLOCK_ROWS + 3
    ids = np.arange(n)
    wide = ids.copy()
    wide[[bio.BLOCK_ROWS - 1, bio.BLOCK_ROWS, n - 1]] = [2**32 - 1, 2**32, INT64.min]
    columns = {"id": ids, "wide": wide, "code": np.resize(np.array([-1, 0, 1], dtype=np.int8), n)}
    bio._int_csv(tmp_path / "rows.csv", "# header", columns)
    assert (tmp_path / "rows.csv").read_bytes() == savetxt_int_csv("# header", columns)


def test_int_csv_memory_flat_across_workers(tmp_path, monkeypatch):
    # Over four blocks' worth of rows, four workers share the one block's budget.
    n = 4 * bio.BLOCK_ROWS + 5
    rng = np.random.default_rng(3)
    columns = {
        "trial_id": np.arange(n),
        "x": rng.integers(0, 2, size=n).astype(np.int8),
        "a": (1 - 2 * rng.integers(0, 2, size=n)).astype(np.int8),
    }
    peaks, files = {}, {}
    for threads in ("1", "4"):
        monkeypatch.setenv("BELLLAB_THREADS", threads)
        path = tmp_path / f"rows_{threads}.csv"
        bio._int_csv(path, "# header", columns)  # the first pool imports concurrent.futures
        tracemalloc.start()
        try:
            bio._int_csv(path, "# header", columns)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        files[threads] = path.read_bytes()
    assert files["1"] == files["4"]
    assert peaks["4"] <= 1.05 * peaks["1"] + 2**16, peaks


def test_writers_stream_row_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(bio, "BLOCK_ROWS", 4)
    n = 2 * bio.BLOCK_ROWS + 3
    rng = np.random.default_rng(5)

    def codes(values):
        return rng.choice(values, size=n).astype(np.int8)

    run = PairedRawData(codes([0, 1]), codes([0, 1]), codes([-1, 1]), codes([-1, 1]))
    bio.write_trials_csv(tmp_path / "trials.csv", run, seed=1)
    columns = {"trial_id": np.arange(n), "x": run.x, "y": run.y, "a": run.a, "b": run.b}
    expected = savetxt_int_csv(bio._header("trials", 1), {**columns, "ready": np.ones(n)})
    assert (tmp_path / "trials.csv").read_bytes() == expected
    back = bio.read_trials_csv(tmp_path / "trials.csv")
    assert all((getattr(back, k) == getattr(run, k)).all() for k in "xyab")

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
    run = run_event_ready(EventReadyConfig(5, herald_prob=1.0), QuantumSingletModel(CANONICAL_ANGLES), seed=1)
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
    back = bio.read_trials_csv(ok)  # not-ready rows may carry zeros; they are dropped
    assert list(back.a) == [1] and list(back.b) == [-1]
    for row in ("1,1,0,0,1,1", "1,1,0,1,0,1", "1,1,0,1,1,2", "1,-1,0,1,1,1", "1,1,0,2,1,1"):
        path = _csv(tmp_path / "bad.csv", "kind=trials seed=1", columns, ["0,0,1,1,-1,1", row])
        with pytest.raises(ConfigError, match="bad.csv"):
            bio.read_trials_csv(path)


TAGS = ("kind=timetags seed=1 station=A", "time_ns,setting,outcome", "1,0,1")
#: File name -> ((header fields, column names, a valid row), reader).
READERS = {
    "tags.csv": (TAGS, bio.read_timetags_csv),
    "pairs.csv": (("kind=pairs seed=1", "x,y,a,b", "0,1,1,-1"), bio.read_pairs_csv),
    "trials.csv": (("kind=trials seed=1", "trial_id,x,y,a,b,ready", "0,0,1,1,-1,1"), bio.read_trials_csv),
}


@pytest.mark.parametrize(
    "name, row, message",
    [
        ("tags.csv", "2,32767,1", r"tags\.csv: stream settings must be in \(0, 1\)"),
        ("tags.csv", "2,1,32767", r"tags\.csv: stream outcomes must be in \(-1, 1\)"),
        ("pairs.csv", "0,0,32767,1", r"pairs\.csv: outcomes must be in \(-1, 0, 1\)"),
        ("pairs.csv", "-32768,0,1,1", r"pairs\.csv: settings must be in \(-1, 0, 1\)"),
        ("trials.csv", "1,32767,0,1,1,1", r"trials\.csv: data row 2"),
    ],
)
def test_code_cell_in_int16_range_fails_the_code_check(tmp_path, name, row, message):
    (header, columns, good), read = READERS[name]
    with pytest.raises(ConfigError, match=message):
        read(_csv(tmp_path / name, header, columns, [good, row]))


@pytest.mark.parametrize(
    "name, row, message",
    [
        ("tags.csv", "2,2,1", r"tags\.csv: stream settings must be in \(0, 1\): data row 3 has 2$"),
        ("pairs.csv", "0,5,1,1", r"pairs\.csv: settings must be in \(-1, 0, 1\): data row 3 has 5$"),
        ("trials.csv", "2,0,1,1,-1,3", r"trials\.csv: ready must be 0 or 1: data row 3 has 3$"),
    ],
)
def test_code_message_names_the_first_offending_data_row(tmp_path, name, row, message):
    (header, columns, good), read = READERS[name]
    with pytest.raises(ConfigError, match=message):
        read(_csv(tmp_path / name, header, columns, [good, good, row, row]))


@pytest.mark.parametrize("cell", ["32768", "70000", "-32769"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_code_cell_beyond_int16_names_the_file(tmp_path, name, cell):
    (header, columns, good), read = READERS[name]
    # The cell goes in the second column, a code column of every kind; a trial row is not ready.
    row = good.split(",")
    row[1] = cell
    row[-1] = "0" if name == "trials.csv" else row[-1]
    with pytest.raises(ConfigError, match=rf"{name}: could not convert string '{cell}' to int16"):
        read(_csv(tmp_path / name, header, columns, [good, ",".join(row)]))


@pytest.mark.parametrize("change", ["drop", "extra", "trailing_comma"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_missing_or_extra_cell_names_the_file(tmp_path, name, change):
    (header, columns, good), read = READERS[name]
    row = {"drop": good.rsplit(",", 1)[0], "extra": good + ",1", "trailing_comma": good + ","}[change]
    with pytest.raises(ConfigError, match=rf"{name}: .*columns"):
        read(_csv(tmp_path / name, header, columns, [good, row]))


@pytest.mark.parametrize(
    "row, message",
    [
        ("2,x,0,1,1,1", "could not convert string 'x' to int16 at data row 3, column 2"),
        ("9223372036854775808,0,0,1,1,0", "could not convert string '9223372036854775808' to int64 at data row 3, column 1"),
        ("2,0,0,1,1", "the dtype passed requires 6 columns but 5 were found at data row 3"),
        ("2,0,0,1,1,1,1", "the dtype passed requires 6 columns but 7 were found at data row 3"),
        ("2,0,0,0,1,1", "data row 3: a ready trial needs settings 0 or 1 and outcomes +1 or -1"),
    ],
)
def test_every_message_counts_data_rows_from_one(tmp_path, row, message):
    # A blank line is not a data row, for numpy's messages and the reader's own alike.
    rows = ["0,0,1,1,-1,1", "", "1,1,0,1,1,1", row]
    path = _csv(tmp_path / "trials.csv", "kind=trials seed=1", "trial_id,x,y,a,b,ready", rows)
    with pytest.raises(ConfigError) as info:
        bio.read_trials_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_crlf_and_missing_final_newline_read_the_same(tmp_path):
    rng = np.random.default_rng(3)
    pairs = PairedRawData(*rng.integers(-1, 2, size=(4, 50)))
    bio.write_pairs_csv(tmp_path / "lf.csv", pairs, seed=1)
    lf = (tmp_path / "lf.csv").read_bytes()
    for variant in (lf.replace(b"\n", b"\r\n"), lf[:-1], lf.replace(b"\n", b"\r\n")[:-2]):
        (tmp_path / "variant.csv").write_bytes(variant)
        back = bio.read_pairs_csv(tmp_path / "variant.csv")
        assert all((getattr(back, k) == getattr(pairs, k)).all() for k in "xyab")


@pytest.mark.parametrize("where", ["header", "first_row", "late_row"])
def test_non_utf8_byte_names_the_file(tmp_path, where):
    # A late row lies beyond what the header check reads, so np.loadtxt meets the byte.
    rows = ["1,0,1"] * 5000
    if where == "header":
        header = f"# belllab schema_version=1 {TAGS[0]}\xff"
    else:
        header = f"# belllab schema_version=1 {TAGS[0]}"
        rows[0 if where == "first_row" else -1] = "\xff,0,1"
    text = "\n".join([header, TAGS[1], *rows]) + "\n"
    (tmp_path / "tags.csv").write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError, match=r"tags\.csv: 'utf-8' codec can't decode byte 0xff"):
        bio.read_timetags_csv(tmp_path / "tags.csv")


def _pairs_named(path):
    bio.write_pairs_csv(path, PairedRawData(*np.zeros((4, 3), dtype=np.int8)), seed=1)
    return path


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_suffix_rejected_naming_the_file(tmp_path, suffix):
    # np.loadtxt would open a file with this suffix through a decompressor.
    with pytest.raises(ConfigError, match=rf"pairs\{suffix}: CSV inputs are read as plain text"):
        bio.read_pairs_csv(_pairs_named(tmp_path / f"pairs{suffix}"))


@pytest.mark.parametrize("suffix", [".GZ", ".txt", ""])
def test_other_suffixes_read_as_plain_text(tmp_path, suffix):
    assert len(bio.read_pairs_csv(_pairs_named(tmp_path / f"pairs{suffix}"))) == 3


def test_dump_json_writes_results_as_their_fields():
    table = ContextTable.from_arrays([0, 1], [1, 1], [1, -1], [0, 1])
    doc = {"table": table, "summary": estimate(table), "ns": nosignalling_test(table, table)}
    back = json.loads(bio.dump_json(doc))
    assert back["table"] == {s.key(): table.counts[s.x, s.y].tolist() for s in CONTEXTS}
    assert back["summary"]["01"] == {"e_ab": None, "e_a": None, "e_b": None, "c": 0.0, "n_pairs": 0, "n_total": 1}
    assert back["summary"]["11"] == {"e_ab": -1.0, "e_a": -1.0, "e_b": 1.0, "c": 1.0, "n_pairs": 1, "n_total": 1}
    assert [c["party"] for c in back["ns"]["raw"]] == ["alice", "alice", "bob", "bob"]
    assert back["ns"]["raw"][0]["n"] == [0, 1]


def test_dump_json_refuses_other_types():
    # No fallback to str(): a type the encoder does not know is an error naming it.
    with pytest.raises(TypeError, match=r"\bobject\b"):
        bio.dump_json({"x": object()})
