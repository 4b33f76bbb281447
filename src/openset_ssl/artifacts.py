"""The on-disk format of every CSV table and JSON document a run writes.

A table is a header line, then one "\\r\\n"-terminated line per row, as
`csv.writer` writes it: reals carry 17 significant digits, so they read
back bit for bit, and a text field is quoted only where it holds a
comma, a quote or a line break.  A JSON document is indented by two,
with sorted keys and a final newline.  A truncated or malformed file is
rejected with a `ValueError` that names the path, the line and the column.

Both directions go `_CHUNK_ROWS` records at a time: the writer formats
a chunk of rows per write, and the streaming reader parses and converts a
chunk of records as they stream from the file, so neither holds a whole
table as text or as field strings.  A valid table of numbers and fixed
choices (`int`, `float` and `one_of` columns) is parsed by numpy instead,
in one `np.loadtxt` pass into typed columns; everything else, every
error included, by the streaming reader, which is also the fallback
wherever the numpy pass might read a file otherwise.

Every writer goes through `replacing`: the file is written under a temp
name beside its target and renamed over it when complete, so a write that
raises leaves the previous file as it was and no partial one.
"""

import contextlib
import csv
import json
import os
import warnings
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
    otherwise, and for any other table, they are lists from `_stream_table`.
    """
    if any(c is not None and _dtype(c) is None for c in (*converters.values(), default)):
        return _stream_table(path, converters, default)
    return _load_numeric(path, converters, default) or {
        name: np.array(col, dtype=_dtype(converters.get(name, default)))
        for name, col in _stream_table(path, converters, default).items()}


def _load_numeric(path, converters, default):
    """The numeric table at `path` as views of one structured array read
    by `np.loadtxt`, or None where the file might not read as
    `_stream_table` reads it: where loadtxt raises or warns, or where the
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
    except (ArithmeticError, OSError, ValueError, Warning):  # the streaming reader names it
        return None
    columns = [rows[field] for field in dtype.names]
    choices = [(col, c.choices) for col, c in zip(columns, convert) if hasattr(c, "choices")]
    if len(rows) != lines - 1 or not all(np.isin(col, c).all() for col, c in choices):
        return None
    return dict(zip(names, columns))


def _stream_table(path, converters, default):
    """The table at `path` as {column name: list of values}: the reader
    that checks every field and names the first fault of a bad file.

    Records stream from the file and are converted a chunk at a time, so
    only the converted columns grow with the table.  Wherever the faults
    of a bad file sit, the one reported is the first of: a malformed
    record, a header fault, a missing final line break, the first record
    of the wrong width, the first unconvertible field of the leftmost
    column that has one.
    """

    def fail(record, col, reason):
        name = repr(header[col]) if col < width else f"#{col + 1}"
        raise ValueError(f"{path}: line {_record_line(path, record)}, column {name}: {reason}")

    with open(path, newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: line 1: no header")
            width = len(header)
            missing = [name for name in converters if name not in header]
            unexpected = [col for col, name in enumerate(header)
                          if name not in converters and default is None]
            if missing or unexpected:
                for _ in reader:  # a malformed record further on is reported first
                    pass
                if missing:
                    raise ValueError(f"{path}: line 1: no column {missing[0]!r}")
                fail(0, unexpected[0], "unexpected column")
            convert = [converters.get(name, default) for name in header]
            columns = [[] for _ in header]
            records, last, wrong, bad = 0, header, None, None
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                if wrong is None:
                    i = next((i for i, row in enumerate(chunk) if len(row) != width), None)
                    if i is not None:
                        found = len(chunk[i])
                        wrong = (records + 1 + i, min(found, width),
                                 f"{found} fields where the header has {width}")
                    else:
                        bad = _convert_chunk(chunk, convert, columns, records + 1, bad)
                records, last = records + len(chunk), chunk[-1]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not _ends_with_newline(path):
        fail(records, len(last) - 1, "truncated, the line has no terminator")
    for fault in (wrong, bad):
        if fault is not None:
            fail(*fault)
    return dict(zip(header, columns))


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
        raise ValueError(f"{path}: line {_record_line(path, row + 1)}, column {names[col]!r}: "
                         f"'{x[col, row]}' is not a finite real")
    return x.T.copy()


def _convert_chunk(chunk, convert, columns, first, bad):
    """Append the chunk's converted fields to `columns`, the chunk's first
    record being record `first`.  Returns the table's fault so far, as
    (record, column, reason) of the first unconvertible field of the
    leftmost column that has one: only columns left of `bad` can move it."""
    for col, fields in enumerate(zip(*chunk)):
        if bad is not None and col >= bad[1]:
            break
        try:
            columns[col].extend(map(convert[col], fields))
        except ValueError:
            for record, field in enumerate(fields, start=first):
                try:
                    convert[col](field)
                except ValueError as exc:
                    return record, col, str(exc)
    return bad


def _ends_with_newline(path):
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


def _record_line(path, record):
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
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path):
    with open(path) as fh:
        return parse_json(path, fh.read())


def parse_json(path, text):
    """The JSON document `text`, read from `path`; one that does not
    decode fails with a `ValueError` naming the path, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
