"""The on-disk format of every CSV table and JSON document a run writes.

A table is a header line, then one "\\r\\n"-terminated line per row, as
`csv.writer` writes it: reals carry 17 significant digits, so they read
back bit for bit, and a text field is quoted only where it holds a
comma, a quote or a line break.  A JSON document is indented by two,
with sorted keys and a final newline.  A truncated or malformed file is
rejected with a `ValueError` that names the path, the line and the column.
"""

import csv
import io
import json
from itertools import islice

INT = "%d"
REAL = "%.17g"
TEXT = "%s"

_CHUNK_ROWS = 1024


def optional_real(value):
    """A real as a TEXT field, None as an empty one."""
    return "" if value is None else REAL % value


def one_of(*choices):
    """Converter that accepts exactly the given strings."""

    def convert(field):
        if field not in choices:
            raise ValueError(f"{field!r} is not one of {', '.join(choices)}")
        return field

    return convert


def _quote(value):
    """A TEXT value as csv.writer's minimal quoting writes it."""
    if value is None:
        return ""
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def write_table(path, header, formats, rows):
    """Write `rows` (tuples) under `header`, each value through the `%`
    format of its column.  Rows are formatted a chunk at a time, so a
    large table is never held as tuples all at once."""
    line = ",".join(formats) + "\r\n"
    text = [col for col, fmt in enumerate(formats) if fmt == TEXT]
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            for col in text:
                quoted = {v: _quote(v) for v in {row[col] for row in chunk}}
                if any(q is not v for v, q in quoted.items()):
                    chunk = [row[:col] + (quoted[row[col]],) + row[col + 1 :] for row in chunk]
            fh.write("".join(line % row for row in chunk))


def read_table(path, converters, default=None):
    """The table at `path` as {column name: list of values}, in header
    order.  `converters` maps each column that must be present to the
    function that parses its fields; other columns use `default`, and
    are rejected without one."""
    with open(path, newline="") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: line 1: no header")
    header = rows[0]
    width = len(header)

    def fail(record, col, reason):
        # the physical line the record starts on; fields may hold line breaks
        records = csv.reader(io.StringIO(text, newline=""))
        line = 1
        for _ in range(record):
            next(records)
            line = records.line_num + 1
        name = repr(header[col]) if col < width else f"#{col + 1}"
        raise ValueError(f"{path}: line {line}, column {name}: {reason}")

    for name in converters:
        if name not in header:
            raise ValueError(f"{path}: line 1: no column {name!r}")
    for col, name in enumerate(header):
        if name not in converters and default is None:
            fail(0, col, "unexpected column")
    if not text.endswith("\n"):
        fail(len(rows) - 1, len(rows[-1]) - 1, "truncated, the line has no terminator")
    if set(map(len, rows)) - {width}:
        record = next(i for i, row in enumerate(rows) if len(row) != width)
        found = len(rows[record])
        fail(record, min(found, width), f"{found} fields where the header has {width}")
    table = {}
    columns = zip(*rows[1:]) if len(rows) > 1 else [()] * width
    for col, (name, fields) in enumerate(zip(header, columns)):
        convert = converters.get(name, default)
        try:
            table[name] = list(map(convert, fields))
        except ValueError:
            for record, field in enumerate(fields, start=1):
                try:
                    convert(field)
                except ValueError as exc:
                    fail(record, col, str(exc))
    return table


def write_json(path, doc):
    with open(path, "w") as fh:
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
