"""Strict input, the one reader of every file the package reads: ``read_file``
reads a UTF-8 file as text whose lines end at '\\n', ``read_json`` refuses a
repeated key where ``json.loads`` keeps its last value, and ``read_rows``
reads rows of numbers. Also the one table of value types, so a check and its
refusal agree."""

import json
import math
from dataclasses import MISSING, fields

import numpy as np

from .errors import ParseError, SchemaError


def read_file(path, error=ParseError):
    """The text of the UTF-8 file at `path` with every line end made '\\n': a
    line ends at '\\n', '\\r\\n' or a lone '\\r', as Python's text mode reads it
    (not at a form feed, as ``str.splitlines`` would). A byte that is not
    UTF-8 raises `error` naming the file and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # no byte of a multi-byte UTF-8 character is '\r' or '\n'
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8: {exc.reason}") from None


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def read_json(text):
    """The JSON document in `text`; ValueError (``json.JSONDecodeError`` is
    one) when it is not JSON or an object repeats a key."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def plain_text(text):
    return text.isascii() and "_" not in text


def _table(rows, width, text):
    """`rows`, the lines of `text`, as a (rows, width) array in one pass; None if one is no row."""
    # float refuses a field that holds a ',', so rows of one field need no count
    if not plain_text(text) or width > 1 and any(t.count(",") != width - 1 for t in rows):
        return None
    try:
        flat = np.fromiter(map(float, rows if width == 1 else ",".join(rows).split(",")),
                           dtype=np.float64, count=len(rows) * width)
    except ValueError:
        return None
    return flat.reshape(len(rows), width) if np.isfinite(flat).all() else None


CHUNK_CHARS = 1 << 16  # some 3,000 checkpoint lines, 0.2 MB as strings where all take 15 MB


def read_rows(path, text, width, first=1, comments=False):
    """The rows of numbers in `text`, ``read_file`` text of file `path` whose
    lines are numbered from `first`, as a (rows, width) float64 array. Blank
    lines and, with `comments`, lines whose first non-blank character is '#'
    are skipped. Every other line is `width` finite numbers split at ',',
    each as ``float`` reads it but in ASCII without '_'. The first line that
    is not raises SchemaError (its width) or ParseError. The text is read in
    chunks, each the fewest whole lines of at least CHUNK_CHARS characters,
    in one pass per chunk; only once that has failed are the chunk's lines
    walked one at a time, by the same rule, to find the line."""
    tables, pos = [], 0
    while pos < len(text) or not tables:
        end = text.find("\n", pos + CHUNK_CHARS - 1) + 1 or len(text)
        chunk, pos = text[pos:end], end
        lines = chunk.split("\n")
        if not lines[-1]:
            lines.pop()  # the end of the last line: an empty last line is none
        # a file seldom has a line to skip, so its lines are first read as they are
        table = _table(lines, width, chunk)
        if table is None:
            numbered = [(ln, t) for ln, t in enumerate(lines, start=first)
                        if t.strip() and not (comments and t.lstrip().startswith("#"))]
            rows = [t for _, t in numbered]
            table = _table(rows, width, "\n".join(rows))
        if table is None:
            for ln, line in numbered:
                cells = line.split(",")
                if len(cells) != width:
                    raise SchemaError(f"{path}: line {ln}: expected {width} fields, got {len(cells)}")
                for field in cells:
                    try:  # a field that is not plain text is read as '', which float refuses
                        value = float(field if plain_text(field) else "")
                    except ValueError:
                        raise ParseError(f"{path}: line {ln}: not a number: {field!r}") from None
                    if not math.isfinite(value):
                        raise ParseError(f"{path}: line {ln}: not a finite number: {field!r}")
            raise AssertionError(f"{path}: the one-pass parse refused rows that hold no fault")
        tables.append(table)
        first += len(lines)
    return np.concatenate(tables)


def _int(v):
    return type(v) is int and -2**63 <= v < 2**63  # never a bool; an int64, as numpy sizes are


def _number(v):
    """A finite number: JSON NaN and Infinity fail, as does an int past float range."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


def _list_of(check, min_len=0):
    return lambda v: type(v) is list and len(v) >= min_len and all(map(check, v))


_numbers = _list_of(_number, 1)

# type name -> check of a parsed JSON value
TYPES = {
    "int": _int,
    "number": _number,
    "bool": lambda v: type(v) is bool,
    "string or null": lambda v: v is None or type(v) is str,
    "list of int": _list_of(_int),
    "non-empty list of int": _list_of(_int, 1),
    "non-empty list of numbers": _numbers,
    "non-empty list of numbers or null": lambda v: v is None or _numbers(v),
}

# a dataclass field's annotation -> its type name; a tuple field holds widths
_FIELD_TYPES = {int: "int", float: "number", bool: "bool", tuple: "list of int"}


def keyspec(type_name, default=MISSING):
    """A config key: ``(check, type name, default)``; a MISSING default marks
    a required key."""
    return TYPES[type_name], type_name, default


def json_value(v):
    """`v` as JSON holds it: a tuple as a list."""
    return list(v) if type(v) is tuple else v


def dataclass_keys(cls, skip=()):
    """The key of every field of dataclass `cls` not in `skip`, typed by its
    annotation and defaulting to its default."""
    return {f.name: keyspec(_FIELD_TYPES[f.type], json_value(f.default)) for f in fields(cls)
            if f.name not in skip}
