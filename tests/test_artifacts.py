"""The artifact codec: every table and JSON document byte-identical to
the csv.writer / json.dump writers it replaced, and strict reads."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import helpers
from openset_ssl import artifacts
from openset_ssl.artifacts import (
    INT,
    REAL,
    TEXT,
    one_of,
    read_json,
    read_table,
    write_json,
    write_table,
)
from openset_ssl.contrastive import write_loss_trace
from openset_ssl.data import Dataset, read_dataset, write_dataset
from openset_ssl.detect import read_scored_manifest, write_scored_manifest
from openset_ssl.harness import write_curve_csv, write_sweep_table
from openset_ssl.labeling import (
    PseudoLabels,
    read_pseudo_label_manifest,
    read_soft_label_manifest,
    write_pseudo_label_manifest,
    write_soft_label_manifest,
)
from openset_ssl.model import ModelConfig, build_model, save_checkpoint
from openset_ssl.train import write_train_trace

SPECIAL = [-0.0, 5e-324, 5e300, -1.25e-7, 1.0]  # negative zero, a subnormal, a huge real
reals = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL)
ids = st.integers(-(2**63), 2**63 - 1)
text = st.text(st.characters(blacklist_categories=["Cs"]))
cases = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def same_bytes(tmp_path, write, reference, *args):
    ours, ref = tmp_path / "ours", tmp_path / "ref"
    write(ours, *args)
    reference(ref, *args)
    assert ours.read_bytes() == ref.read_bytes()


@cases
@given(n=st.integers(0, 6), dim=st.integers(1, 5), data=st.data())
def test_dataset_bytes(tmp_path, n, dim, data):
    x = np.array(data.draw(st.lists(reals, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    dataset = Dataset(
        ids=np.array(data.draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64),
        x=x,
        label=np.array(data.draw(st.lists(st.integers(-1, 9), min_size=n, max_size=n)),
                       dtype=np.int64),
        truth=np.array(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)),
                       dtype=np.int64),
        origin=np.array(data.draw(st.lists(st.sampled_from(["in", "out"]), min_size=n,
                                           max_size=n)), dtype="<U3"),
    )
    same_bytes(tmp_path, write_dataset, helpers.reference_write_dataset, dataset)


@cases
@given(trace=st.lists(st.tuples(st.integers(0, 10**6), reals)))
def test_loss_trace_bytes(tmp_path, trace):
    same_bytes(tmp_path, write_loss_trace, helpers.reference_write_loss_trace, trace)


@cases
@given(trace=st.lists(st.tuples(st.integers(0, 10**6), reals, reals, reals,
                                st.none() | reals)))
@example(trace=[(0, 1.5, 1.0, 0.5, None), (1, -0.0, 5e-324, 5e300, 0.25), (2, 1.0, 1.0, 0.0, None)])
def test_train_trace_bytes(tmp_path, trace):
    # most steps leave the test_accuracy cell empty
    same_bytes(tmp_path, write_train_trace, helpers.reference_write_train_trace, trace)


@cases
@given(width=st.integers(0, 4), n=st.integers(0, 6), threshold=reals, data=st.data())
@example(width=0, n=0, threshold=0.0, data=None)  # header only, no similarity columns
def test_scored_manifest_bytes(tmp_path, width, n, threshold, data):
    if data is None:
        sample_ids, sims, scores = [], np.empty((0, 0)), []
    else:
        sample_ids = data.draw(st.lists(ids, min_size=n, max_size=n))
        sims = np.array([data.draw(st.lists(reals, min_size=width, max_size=width))
                         for _ in range(n)]).reshape(n, width)
        scores = data.draw(st.lists(reals, min_size=n, max_size=n))
    same_bytes(tmp_path, write_scored_manifest, helpers.reference_write_scored_manifest,
               sample_ids, sims, scores, threshold)


@cases
@given(width=st.integers(1, 4), n=st.integers(0, 6), data=st.data())
def test_soft_label_manifest_bytes(tmp_path, width, n, data):
    sample_ids = data.draw(st.lists(ids, min_size=n, max_size=n))
    labels = np.array([data.draw(st.lists(reals, min_size=width, max_size=width))
                       for _ in range(n)]).reshape(n, width)
    same_bytes(tmp_path, write_soft_label_manifest,
               helpers.reference_write_soft_label_manifest, sample_ids, labels)


@cases
@given(n=st.integers(0, 12), data=st.data())
def test_pseudo_label_manifest_bytes(tmp_path, n, data):
    def column(elements, dtype):
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    pseudo = PseudoLabels(column(ids, np.int64), column(st.integers(1, 99), np.int64),
                          column(reals, np.float64))
    same_bytes(tmp_path, write_pseudo_label_manifest,
               helpers.reference_write_pseudo_label_manifest, pseudo)


optional = st.none() | reals
reports = st.builds(
    lambda med, best, auroc, tpr, tnr, t, n_in, n_out: {
        "median_accuracy": med, "best_accuracy": best,
        "detection": {"auroc": auroc, "tpr": tpr, "tnr": tnr, "threshold": t},
        "split_sizes": {"in": n_in, "out": n_out},
    },
    optional, optional, optional, optional, optional, reals,
    st.integers(0, 10**6), st.integers(0, 10**6),
)
sweep_rows = st.lists(st.one_of(
    st.builds(lambda axis, value, rep: {"axis": axis, "value": value, "error": None,
                                         "report": rep}, text, reals, reports),
    st.builds(lambda axis, value, err: {"axis": axis, "value": value, "error": err,
                                         "report": None}, text, reals, st.none() | text),
))
FAILED_ROW = {"axis": "proportion", "value": 0.5, "report": None,
              "error": 'stage \'generate\' failed: need "out", got\r\n0,1\nclasses'}


@cases
@given(rows=sweep_rows)
@example(rows=[FAILED_ROW])
def test_sweep_table_bytes(tmp_path, rows):
    same_bytes(tmp_path, write_sweep_table, helpers.reference_write_sweep_table, rows)


def test_sweep_table_bytes_across_chunks(tmp_path):
    # rows are formatted a chunk at a time: quoting must hold in every chunk
    ok = {"axis": "eta", "value": 1.0, "error": None, "report": {
        "median_accuracy": 0.5, "best_accuracy": 0.75, "split_sizes": {"in": 3, "out": 1},
        "detection": {"auroc": None, "tpr": 0.25, "tnr": None, "threshold": -0.0}}}
    rows = [ok] * 2500
    rows[1500] = rows[2400] = FAILED_ROW
    same_bytes(tmp_path, write_sweep_table, helpers.reference_write_sweep_table, rows)


@cases
@given(rows=sweep_rows)
@example(rows=[FAILED_ROW])
@example(rows=[{**FAILED_ROW, "error": ""}])  # a run that raised `ValueError()`
def test_curve_bytes(tmp_path, rows):
    # curve.csv read from sweep.csv is what the reference writes from the rows
    write_sweep_table(tmp_path / "sweep.csv", rows)
    write_curve_csv(tmp_path / "ours", tmp_path)
    helpers.reference_write_curve_csv(tmp_path / "ref", rows)
    assert (tmp_path / "ours").read_bytes() == (tmp_path / "ref").read_bytes()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=20,
)


def holds_infinity(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(holds_infinity, value))
    return isinstance(value, float) and math.isinf(value)


@cases
@given(doc=st.dictionaries(text, json_values, max_size=6))
@example(doc={"a": [1.0, {"b": -math.inf}]})
def test_json_bytes(tmp_path, doc):
    if holds_infinity(doc):  # not JSON: refused, as the reader refuses it
        with pytest.raises(ValueError, match="Out of range float values"):
            write_json(tmp_path / "infinite", doc)
        assert list(tmp_path.glob("infinite*")) == []
        return
    same_bytes(tmp_path, write_json, helpers.reference_write_json, doc)
    assert read_json(tmp_path / "ours") == doc


def test_quoted_error_survives_the_sweep_directory(tmp_path):
    report = {"median_accuracy": 0.75, "best_accuracy": 0.8, "split_sizes": {"in": 3, "out": 1},
              "detection": {"auroc": None, "tpr": None, "tnr": None, "threshold": 0.1}}
    ok = {"axis": "proportion", "value": 0.0, "error": None, "report": report}
    write_sweep_table(tmp_path / "sweep.csv", [FAILED_ROW, ok])
    table = read_table(tmp_path / "sweep.csv", {"error": str}, default=str)
    assert table["error"] == [FAILED_ROW["error"], ""]
    # the curve is read from sweep.csv alone: a report edited since moves nothing
    (tmp_path / "proportion_0").mkdir()
    write_json(tmp_path / "proportion_0" / "report.json", {**report, "median_accuracy": 0.5})
    write_curve_csv(tmp_path / "curve.csv", tmp_path)
    assert (tmp_path / "curve.csv").read_bytes() == (
        b"value,median_accuracy,best_accuracy\r\n0,0.75,0.80000000000000004\r\n"
    )


class TestReadTable:
    def write(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_bytes(body.encode())
        return path

    def read(self, path):
        return read_table(path, {"n": int, "note": str}, default=float)

    def test_columns_in_header_order(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["n", "x", "note"], [INT, REAL, TEXT],
                    [(1, 0.1, 'a,"b"\nc'), (2, -0.0, "")])
        table = self.read(path)
        assert list(table) == ["n", "x", "note"]
        assert table["n"] == [1, 2] and table["x"] == [0.1, -0.0]
        assert table["note"] == ['a,"b"\nc', ""]

    def test_empty_body(self, tmp_path):
        assert self.read(self.write(tmp_path, "n,note\r\n")) == {"n": [], "note": []}

    @pytest.mark.parametrize("body, where", [
        ("", "line 1: no header"),
        ("x\r\n1.5\r\n", "line 1: no column 'n'"),
        ("n,note,x\r\n1,a,0.5\r\n2,b,0.2", "line 3, column 'x': truncated"),
        ("n,note\r\n1,a\r\n2\r\n", "line 3, column 'note': 1 fields where the header has 2"),
        ("n,note\r\n1,a\r\n2,b,c\r\n", "line 3, column #3: 3 fields where the header has 2"),
        ("n,note\r\n1,a\r\n\r\n", "line 3, column 'n': 0 fields"),
        ('n,note\r\n1,"a\r\nb"\r\n2.5,c\r\n', "line 4, column 'n': invalid literal"),
        ('n,note\r\n1,"a\r\n', "line 2: unexpected end of data"),
    ], ids=["empty", "missing-column", "no-terminator", "short-row", "long-row", "blank-line",
            "bad-field-after-multiline-record", "cut-inside-quotes"])
    def test_malformed_named(self, tmp_path, body, where):
        path = self.write(tmp_path, body)
        with pytest.raises(ValueError) as err:
            self.read(path)
        assert str(err.value).startswith(f"{path}: {where}")

    def test_unexpected_column_without_default(self, tmp_path):
        path = self.write(tmp_path, "n,note,extra\r\n1,a,b\r\n")
        with pytest.raises(ValueError) as err:
            read_table(path, {"n": int, "note": str})
        assert str(err.value) == f"{path}: line 1, column 'extra': unexpected column"


fields = st.sampled_from(["1", "-3", "2.5", "nan", "a", "", '"q,r"', '"a\r\nb"', '"', 'x"y'])
line_breaks = st.sampled_from(["\r\n", "\n", "\r"])


@cases
@given(header=st.sampled_from(["n,note", "n,note,x", "note,n", "x", "n,note,extra", "n,n,note"]),
       records=st.lists(st.tuples(st.lists(fields, max_size=4).map(",".join), line_breaks),
                        max_size=8),
       cut=st.booleans(), default=st.sampled_from([float, None]))
@example(header="n,note,x", records=[("1,a,b", "\r\n"), ("2.5,b,1", "\r\n"), ("1,a", "\r\n")],
         cut=False, default=float)  # the short record outranks both bad fields
@example(header="n,note,x", records=[("1,a,b", "\r\n"), ("2.5,b,1", "\r\n")],
         cut=False, default=float)  # column 'n' outranks the earlier 'x'
@example(header="n,note,x", records=[("2.5,b,1", "\r\n"), ("1,a,b", "\r\n")],
         cut=False, default=float)  # ... and the later 'x' does not displace it
def test_streamed_read_matches_the_whole_file_read(tmp_path, header, records, cut, default):
    # the same table or the same error, byte for byte, wherever the faults sit
    body = header + "\r\n" + "".join(record + end for record, end in records)
    path = tmp_path / "t.csv"
    path.write_bytes((body[:-1] if cut and records else body).encode())

    def outcome(read):
        try:
            return read(path, {"n": int, "note": str}, default)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    assert outcome(read_table) == outcome(helpers.reference_read_table)


NUMERIC = {"id": int, "label": int, "origin": one_of("in", "out")}  # other columns: float
NUMERIC_TYPES = {"id": "<i8", "label": "<i8", "origin": "<U4"}  # other columns: "<f8"
CORRUPT_FIELDS = ["1_0", " 2.5", "+1", "1.0", "1e500", "nan", "-nan", "Infinity",
                  "99999999999999999999", "outside", "in\x00", " in", '"in"', "#1", "1\r2",
                  "in\r", "\u01fe"]
numeric_rows = st.lists(st.tuples(ids, reals, st.integers(-1, 9), reals,
                                  st.sampled_from(["in", "out"])), max_size=6)


@cases
@given(rows=numeric_rows,
       corrupt=st.none() | st.tuples(st.integers(0, 6), st.integers(0, 4),
                                     st.sampled_from(CORRUPT_FIELDS)),
       blank=st.none() | st.integers(1, 7), line_break=st.sampled_from(["\r\n", "\n"]),
       header_end=st.sampled_from(["", "\r"]), cut=st.booleans())
@example(rows=[(1, 0.5, -1, -0.0, "in"), (-2, 5e-324, 3, 5e300, "out")], corrupt=None,
         blank=None, line_break="\r\n", header_end="", cut=False)  # as written
# a blank record after the header, which loadtxt skips with the header
@example(rows=[(1, 0.5, -1, -0.0, "in")], corrupt=None, blank=None, line_break="\r\n",
         header_end="\r", cut=False)
# no column 'label'
@example(rows=[(1, 0.5, -1, -0.0, "in")], corrupt=(0, 2, "1_0"), blank=None,
         line_break="\r\n", header_end="", cut=False)
# the "\r" ends the record, and a blank one follows
@example(rows=[(1, 0.5, -1, -0.0, "in")], corrupt=(1, 4, "in\r"), blank=None,
         line_break="\r\n", header_end="", cut=False)
# loadtxt drops a trailing NUL, and cuts a field to its column's width
@example(rows=[(1, 0.5, -1, -0.0, "in")], corrupt=(1, 4, "in\x00"), blank=None,
         line_break="\n", header_end="", cut=False)
@example(rows=[(1, 0.5, -1, -0.0, "in")], corrupt=(1, 4, "outside"), blank=None,
         line_break="\n", header_end="", cut=False)
# from text, loadtxt reads "\u01fe" as the int 462
@example(rows=[(1, 0.5, -1, -0.0, "in")], corrupt=(1, 0, "\u01fe"), blank=None,
         line_break="\n", header_end="", cut=False)
def test_numeric_read_matches_the_reference(tmp_path, rows, corrupt, blank, line_break,
                                            header_end, cut):
    # a numeric table comes out typed, with the reference's values bit for
    # bit or its error byte for byte, whichever reader parses it
    records = [["id", "x0", "label", "x1", "origin"]]  # the header can be corrupted too
    records += [[str(i), REAL % a, str(label), REAL % b, origin]
                for i, a, label, b, origin in rows]
    if corrupt is not None:
        row, col, field = corrupt
        records[row % len(records)][col] = field
    lines = [",".join(records[0]) + header_end, *map(",".join, records[1:])]
    if blank is not None:
        lines.insert(1 + blank % len(lines), "")
    body = "".join(line + line_break for line in lines)
    path = tmp_path / "t.csv"
    path.write_bytes((body[:-1] if cut else body).encode())

    def outcome(read):
        try:
            table = {name: np.asarray(col, dtype=NUMERIC_TYPES.get(name, "<f8"))
                     for name, col in read(path, NUMERIC, float).items()}
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        return {name: (col.dtype.str, col.tobytes()) for name, col in table.items()}

    assert outcome(read_table) == outcome(helpers.reference_read_table)


def test_written_tables_take_the_numpy_path(tmp_path):
    # with the checked reader out of reach, every table a run reads back
    # (dataset, scored manifest, soft and pseudo labels) still reads whole
    rng = np.random.default_rng(0)
    dataset = Dataset(ids=np.arange(50), x=rng.standard_normal((50, 3)),
                      label=rng.integers(-1, 3, 50), truth=rng.integers(1, 5, 50),
                      origin=np.where(rng.random(50) < 0.5, "in", "out"))
    sims = rng.uniform(-1.0, 1.0, (50, 2))
    scores = sims.max(axis=1)  # a score is its row's largest similarity
    soft = rng.dirichlet(np.ones(4), 50)
    pseudo = PseudoLabels(dataset.ids[:20], rng.integers(1, 5, 20), rng.random(20))
    write_dataset(tmp_path / "data.csv", dataset)
    write_scored_manifest(tmp_path / "scored.csv", dataset.ids, sims, scores, 0.0)
    write_soft_label_manifest(tmp_path / "soft.csv", dataset.ids, soft)
    write_pseudo_label_manifest(tmp_path / "pseudo.csv", pseudo)
    with mock.patch.object(artifacts, "_checked_table", side_effect=AssertionError("checked")):
        loaded = read_dataset(tmp_path / "data.csv", 3)
        scored = read_scored_manifest(tmp_path / "scored.csv", 2)
        soft_ids, soft_q = read_soft_label_manifest(tmp_path / "soft.csv", 4)
        pseudo_read = read_pseudo_label_manifest(tmp_path / "pseudo.csv")
    for name in ("ids", "x", "label", "truth", "origin"):
        assert np.array_equal(getattr(loaded, name), getattr(dataset, name))
    for got, want in zip(scored, (dataset.ids, sims, scores, scores < 0.0)):
        assert np.array_equal(got, want)
    assert np.array_equal(soft_ids, dataset.ids) and np.array_equal(soft_q, soft)
    for got, want in zip(pseudo_read, pseudo):
        assert np.array_equal(got, want)


def test_numeric_read_peak_is_near_the_arrays_it_returns(tmp_path):
    # a dataset table is parsed into its typed columns, not through lists
    # of Python numbers
    rows = 16 * artifacts._CHUNK_ROWS
    rng = np.random.default_rng(rows)
    dataset = Dataset(ids=np.arange(rows), x=rng.standard_normal((rows, 16)),
                      label=np.full(rows, -1), truth=rng.integers(1, 17, rows),
                      origin=np.full(rows, "out"))
    write_dataset(tmp_path / "data.csv", dataset)
    tracemalloc.start()
    try:
        table = read_table(tmp_path / "data.csv",
                           {"id": int, "label": int, "truth": int, "origin": one_of("in", "out")},
                           default=float)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sum(np.asarray(column).nbytes for column in table.values())


def test_read_json_names_the_file(tmp_path):
    path = tmp_path / "detect.json"
    path.write_text('{\n  "mu": 0.5,\n  "sigma"')
    with pytest.raises(ValueError) as err:
        read_json(path)
    assert str(err.value).startswith(f"{path}: line 3, column 10: ")


@pytest.mark.parametrize("text, fault", [
    ('{"eta": NaN}', "line 1, column 9: NaN is not a JSON value"),
    ('[1,\n Infinity]', "line 2, column 2: Infinity is not a JSON value"),
    ('{"a": [-Infinity, NaN]}', "line 1, column 8: -Infinity is not a JSON value"),
    # the literals inside strings, escaped quotes included, are text
    ('{"NaN": "\\"Infinity", "b": [NaN]}', "line 1, column 29: NaN is not a JSON value"),
], ids=["nan", "infinity", "minus-infinity", "after-strings"])
def test_read_json_rejects_non_json_literals(tmp_path, text, fault):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_json(path)
    assert str(err.value) == f"{path}: {fault}"



def _table(path, bad_row=None):
    rows = [(i, 0.5 * i, f"r{i}") for i in range(2 * artifacts._CHUNK_ROWS)]
    if bad_row is not None:
        rows[bad_row] = (None, 0.0, "bad")  # None in a %d column
    write_table(path, ["id", "x", "name"], [INT, REAL, TEXT], rows)


def _checkpoint(path, broken=False):
    model = build_model(ModelConfig(input_dim=3, embed_dim=4, proj_dim=2), seed=0)
    if broken:  # fails after the manifest is written
        model.stats["broken"] = np.array(["not a real"])
    save_checkpoint(path, model)


REWRITES = {
    "table": (_table, lambda path: _table(path, bad_row=artifacts._CHUNK_ROWS + 500)),
    "json": (lambda path: write_json(path, {"a": [1, 2]}),
             lambda path: write_json(path, {"a": [1, object()]})),
    "checkpoint": (_checkpoint, lambda path: _checkpoint(path, broken=True)),
}


@pytest.mark.parametrize("writer", sorted(REWRITES))
def test_failed_rewrite_keeps_the_previous_file(tmp_path, writer):
    """A write that raises part way, here in the table's second chunk,
    leaves the file it would replace byte for byte and no temp file."""
    write, rewrite = REWRITES[writer]
    path = tmp_path / "out"
    write(path)
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError)):
        rewrite(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
