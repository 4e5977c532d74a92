"""Strict JSON input: the one reader of configs and checkpoint headers, which
refuses a repeated key where ``json.loads`` keeps its last value, and the one
table of value types, so a check and the type name its refusal prints cannot
disagree. Also the one reader of a numeric field of a data or checkpoint
line, which refuses what ``float`` reads but no file of ours writes."""

import json
import math
from dataclasses import MISSING, fields


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


def plain_text(text, start=0):
    """Whether `text` is ASCII and holds no '_' from index `start` on: then
    ``float`` reads each field there exactly as ``read_float`` does."""
    return text.isascii() and text.find("_", start) < 0


def read_float(field):
    """``float(field)``, except that digit grouping and non-ASCII digits
    raise ValueError: ``float`` reads '1_5' as 15.0 and '١٢' as 12.0.
    Whitespace around the number is skipped, as ``float`` skips it."""
    if not plain_text(field.strip()):
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def _int(v):
    return type(v) is int  # a JSON true or false is a bool, never an int


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
