"""The on-disk format of every CSV table and JSON document a run writes.

A table is a header line, then one "\\r\\n"-terminated line per row, as
`csv.writer` writes it: reals carry 17 significant digits, so they read
back bit for bit, and a text field is quoted only where it holds a
comma, a quote or a line break.  A JSON document is indented by two,
with sorted keys and a final newline.  A truncated or malformed file is
rejected with a `ValueError` that names the path, the line and the column,
and so is a JSON document that holds `NaN`, `Infinity` or `-Infinity`,
which the writer refuses to write.

`from_dict` is the one reader from a document to a config: strict for a
document read from disk (`spec.json`, `report.json`'s config, a
checkpoint's config), which must give every field, and laid over a base
for `--config` over the flags.  `fields_of` re-raises what a document
lacks or gets wrong as one `ValueError` naming the path and the field.

The writer formats `_CHUNK_ROWS` rows per write, so it never holds a
whole table as tuples.  A valid table of numbers and fixed choices
(`int`, `float` and `one_of` columns) is parsed by numpy, in one
`np.loadtxt` pass into typed columns; everything else, every error
included, by the checked reader, which reads the whole file, checks every
field and names the first fault, and is also the fallback wherever the
numpy pass might read a file otherwise.

Every writer goes through `replacing`: the file is written under a temp
name beside its target and renamed over it when complete, so a write that
raises leaves the previous file as it was and no partial one.
"""

import contextlib
import csv
import io
import json
import os
import re
import warnings
from dataclasses import fields, is_dataclass, replace
from itertools import islice

import numpy as np

INT = "%d"
REAL = "%.17g"
TEXT = "%s"

_CHUNK_ROWS = 1024
_SCAN_BYTES = 1 << 18
# ASCII characters np.loadtxt reads otherwise than csv.reader and int()
# or float(): a quote, a NUL, the separators int() and float() keep
_UNLIKE_CSV = b'"\0\x1c\x1d\x1e\x1f'
# a JSON string, or one of the literals json.loads reads and JSON lacks
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|-?Infinity|NaN')


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# a config field's annotation -> (the test a document's value for it
# passes, what the field takes); a field whose default is None also takes None
_LEAVES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a real"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
            "a list of numbers"),
}


def optional_real(value):
    """A real as a TEXT field, None as an empty one."""
    return "" if value is None else REAL % value


def one_of(*choices):
    """Converter that accepts exactly the given strings."""

    def convert(field):
        if field not in choices:
            raise ValueError(f"{field!r} is not one of {', '.join(choices)}")
        return field

    convert.choices = choices
    return convert


def _dtype(convert):
    """The array type of a column `convert` parses, None for a column
    that is not all numbers or choices.  A choice column is one character
    wider than its longest choice, so a longer field is not cut to one."""
    choices = getattr(convert, "choices", None)
    if choices is not None:
        return f"<U{max(map(len, choices)) + 1}"
    return {int: "<i8", float: "<f8"}.get(convert)


def _quote(value):
    """A TEXT value as csv.writer's minimal quoting writes it."""
    if value is None:
        return ""
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@contextlib.contextmanager
def replacing(path, mode="w", **kwargs):
    """Open a temp file in `path`'s directory for writing; when the block
    completes it replaces `path` (`os.replace`), and when the block raises
    it is removed, leaving `path` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_table(path, header, formats, rows):
    """Write `rows` (tuples) under `header`, each value through the `%`
    format of its column.  Rows are formatted a chunk at a time, so a
    large table is never held as tuples all at once."""
    line = ",".join(formats) + "\r\n"
    text = [col for col, fmt in enumerate(formats) if fmt == TEXT]
    rows = iter(rows)
    with replacing(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            for col in text:
                quoted = {v: _quote(v) for v in {row[col] for row in chunk}}
                if any(q is not v for v, q in quoted.items()):
                    chunk = [row[:col] + (quoted[row[col]],) + row[col + 1 :] for row in chunk]
            fh.write("".join(line % row for row in chunk))


def read_table(path, converters, default=None):
    """The table at `path` as {column name: column}, in header order.
    `converters` maps each column that must be present to the function
    that parses its fields; other columns use `default`, and are rejected
    without one.  Where every column's converter is `int`, `float` or
    `one_of(...)`, the columns are typed arrays (`_dtype`), parsed by one
    `np.loadtxt` pass if the file is plain enough that it reads as below;
    otherwise, and for any other table, they are lists from `_checked_table`.
    """
    if any(c is not None and _dtype(c) is None for c in (*converters.values(), default)):
        return _checked_table(path, converters, default)
    return _load_numeric(path, converters, default) or {
        name: np.array(col, dtype=_dtype(converters.get(name, default)))
        for name, col in _checked_table(path, converters, default).items()}


def _load_numeric(path, converters, default):
    """The numeric table at `path` as views of one structured array read
    by `np.loadtxt`, or None where the file might not read as
    `_checked_table` reads it: where loadtxt raises or warns, or where the
    file holds a character loadtxt takes otherwise, a blank line, no final
    line break or a field that is not one of its choices.  The file is
    scanned a chunk at a time.  Read from a binary file, loadtxt splits
    lines at "\\n" alone and rejects a "\\r" other than a line's last
    character, so a line is a record; the header, which it skips, is
    checked here."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            fh.seek(0)
            lines, last = 0, b""
            while chunk := fh.read(_SCAN_BYTES):
                if not chunk.isascii() or any(c in chunk for c in _UNLIKE_CSV):
                    return None
                lines, last = lines + chunk.count(b"\n"), chunk[-1:]
            names = header.decode().rstrip("\r\n").split(",")
            convert = [converters.get(name, default) for name in names]
            if (last != b"\n" or b"\r" in header.removesuffix(b"\r\n") or names == [""]
                    or None in convert or any(name not in names for name in converters)):
                return None
            fh.seek(len(header))
            dtype = np.dtype([(f"c{col}", _dtype(c)) for col, c in enumerate(convert)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype, delimiter=",", comments=None, ndmin=1)
    except (ArithmeticError, OSError, ValueError, Warning):  # the checked reader names it
        return None
    columns = [rows[field] for field in dtype.names]
    choices = [(col, c.choices) for col, c in zip(columns, convert) if hasattr(c, "choices")]
    if len(rows) != lines - 1 or not all(np.isin(col, c).all() for col, c in choices):
        return None
    return dict(zip(names, columns))


def _checked_table(path, converters, default):
    """The table at `path` as {column name: list of values}: the reader
    that checks every field and names the first fault of a bad file.
    Wherever the faults of a bad file sit, the one reported is the first
    of: a malformed record, a header fault, a missing final line break, the
    first record of the wrong width, the first unconvertible field of the
    leftmost column that has one.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: line 1: no header")
    header, width = rows[0], len(rows[0])

    def fail(record, col, reason):
        name = repr(header[col]) if col < width else f"#{col + 1}"
        raise ValueError(f"{path}: line {record_line(path, record)}, column {name}: {reason}")

    for name in converters:
        if name not in header:
            raise ValueError(f"{path}: line 1: no column {name!r}")
    for col, name in enumerate(header):
        if name not in converters and default is None:
            fail(0, col, "unexpected column")
    if not text.endswith("\n"):
        fail(len(rows) - 1, len(rows[-1]) - 1, "truncated, the line has no terminator")
    wrong = next((record for record, row in enumerate(rows) if len(row) != width), None)
    if wrong is not None:
        found = len(rows[wrong])
        fail(wrong, min(found, width), f"{found} fields where the header has {width}")
    columns = zip(*rows[1:]) if len(rows) > 1 else [()] * width
    table = {}
    for col, (name, column) in enumerate(zip(header, columns)):
        convert = converters.get(name, default)
        try:
            table[name] = list(map(convert, column))
        except ValueError:
            for record, field in enumerate(column, start=1):
                try:
                    convert(field)
                except ValueError as exc:
                    fail(record, col, str(exc))
    return table


def real_columns(path, table, names):
    """The columns `names` of a `read_table` result as an (n, len(names))
    float64 matrix; a nan or an inf fails naming the path, and the line
    and column of the first bad row of the leftmost column that has one."""
    n = len(next(iter(table.values())))
    x = np.array([table[name] for name in names], dtype=np.float64).reshape(len(names), n)
    bad = ~np.isfinite(x)
    if bad.any():
        col = bad.any(axis=1).argmax()
        row = bad[col].argmax()
        raise ValueError(f"{path}: line {record_line(path, row + 1)}, column {names[col]!r}: "
                         f"'{x[col, row]}' is not a finite real")
    return x.T.copy()


def record_line(path, record):
    """The physical line record `record` (0 is the header) starts on;
    fields may hold line breaks."""
    with open(path, newline="") as fh:
        records = csv.reader(fh)
        line = 1
        for _ in range(record):
            next(records)
            line = records.line_num + 1
    return line


def write_json(path, doc):
    with replacing(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def read_json(path):
    with open(path) as fh:
        return parse_json(path, fh.read())


def parse_json(path, text):
    """The JSON document `text`, read from `path`; one that does not
    decode, or holds `NaN`, `Infinity` or `-Infinity`, fails with a
    `ValueError` naming the path, line and column."""

    def reject(name):  # the first literal outside a string is the one parsed
        at = next(m for m in _STRING_OR_CONSTANT.finditer(text) if m[0][0] != '"').start()
        raise json.JSONDecodeError(f"{name} is not a JSON value", text, at)

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def from_dict(cls, doc, base=None, prefix=""):
    """The `cls` config (a dataclass) that a document's section `doc` gives;
    keys are field names (`lambda` for `lam`), save a field whose metadata
    has `document` False.  Strict without `base`: an unknown key fails first,
    at each level, then nested sections are read, then the first missing field
    in field order raises KeyError, dotted from the root (`prefix` is `doc`'s path).
    Overlay: `base` with the given fields replaced.  A null section is an absent one.
    A leaf of the wrong JSON type for its field's annotation (`_LEAVES`)
    fails naming its dotted key."""
    by_key = {"lambda" if f.name == "lam" else f.name: f
              for f in fields(cls) if f.metadata.get("document", True)}
    unknown = sorted(set(doc) - set(by_key))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    values = {}
    for key, value in doc.items():
        f = by_key[key]
        if is_dataclass(f.type) and value is None:
            continue
        if is_dataclass(f.type):
            value = from_dict(f.type, value, getattr(base, f.name, None), f"{prefix}{key}.")
        else:
            fits, takes = _LEAVES[f.type]
            if not (fits(value) or value is None and f.default is None):
                raise ValueError(f"{prefix}{key} must be {takes}, got {value!r}")
            if f.type is tuple:
                value = tuple(value)
        values[f.name] = value
    if base is not None:
        return replace(base, **values)
    missing = next((key for key, f in by_key.items() if f.name not in values), None)
    if missing is not None:
        raise KeyError(prefix + missing)
    return cls(**values)


@contextlib.contextmanager
def fields_of(path):
    """Re-raise a missing or unfit field of the document read from `path`
    as a ValueError naming the path and the field."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
