"""The input boundary: ``read_file`` reads a file as text whose lines end at
'\\n' and ``read_rows`` reads rows of numbers from such text, by one rule in
both of its passes."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from disconet import ConfigError, ParseError, SchemaError, strictjson
from disconet.strictjson import CHUNK_CHARS, read_file, read_rows


def read_lines(path, error=ParseError):
    """The lines of the file at `path` as ``read_rows`` takes them: the text
    of ``read_file`` split at '\\n', where an empty last line is none."""
    lines = read_file(path, error).split("\n")
    return lines[:-1] if not lines[-1] else lines


def test_read_lines_ends_lines_as_text_mode_does(tmp_path):
    """A line ends at '\\n', '\\r\\n' or a lone '\\r' and nowhere else: a form
    feed, '\\x1c' and '\\u2028' stay inside their line, where
    ``str.splitlines`` would end it. An empty last line is no line."""
    path = tmp_path / "lines.txt"
    path.write_bytes("a\r\nb\rc\x0cd\x1ce\u2028f\n\ng\n".encode("utf8"))
    assert read_lines(path) == ["a", "b", "c\x0cd\x1ce\u2028f", "", "g"]
    path.write_bytes(b"")
    assert read_lines(path) == []
    path.write_bytes(b"\n")
    assert read_lines(path) == [""]
    path.write_bytes(b"a")
    assert read_lines(path) == ["a"]


@pytest.mark.parametrize("error", [ParseError, ConfigError])
def test_read_lines_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, error):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a\r\nb\rc\n\xc3\xa9 d\xff\n")  # line 4 opens with a valid '\xe9'
    with pytest.raises(error, match=r"^.*bad.txt: line 4: not UTF-8: invalid start byte$"):
        read_lines(path, error)


def _write_and_read(tmp_path, lines, width, comments=False):
    path = tmp_path / "rows.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf8")
    return read_rows(path, read_file(path), width, comments=comments)


@pytest.mark.parametrize("lines, width, comments, error, message", [
    # a row of one field holding a ',' fails float in the one-pass parse
    (["1", "2,3"], 1, False, SchemaError, "line 2: expected 1 fields, got 2"),
    # '\u2028' ends a line for str.splitlines; here it is text a number cannot hold
    (["0.5", "0.5\u2028"], 1, False, ParseError, "line 2: not a number: "),
    (["0.5", "", "nan"], 1, False, ParseError, "line 3: not a finite number: 'nan'"),
    (["0.5,1e400"], 2, False, ParseError, "line 1: not a finite number: '1e400'"),
    # a checkpoint has no comment lines
    (["# note", "0.5"], 1, False, ParseError, "line 1: not a number: '# note'"),
])
def test_read_rows_names_the_first_bad_line(tmp_path, lines, width, comments, error, message):
    with pytest.raises(error, match=re.escape(message)):
        _write_and_read(tmp_path, lines, width, comments)


def test_read_rows_skips_blank_and_comment_lines(tmp_path):
    lines = ["# x,y  ", "", "  ", " 0.5 ,\t-1.0", "\x0c", "  # note", "1e-3,2"]
    table = _write_and_read(tmp_path, lines, 2, comments=True)
    assert table.tolist() == [[0.5, -1.0], [1e-3, 2.0]]
    assert _write_and_read(tmp_path, ["0.5\x0c", "", "0.25"], 1).tolist() == [[0.5], [0.25]]
    assert _write_and_read(tmp_path, ["# only a comment"], 3, comments=True).shape == (0, 3)


def _documented_rule(lines, width, comments):
    """The rule of ``read_rows`` as its docstring states it, one line at a
    time: the rows, or the error class and the line number it names."""
    rows = []
    for ln, line in enumerate(lines, start=1):
        if not line.strip() or comments and line.lstrip().startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != width:
            return SchemaError, ln
        try:
            row = [float(c) for c in cells if c.isascii() and "_" not in c]
        except ValueError:
            return ParseError, ln
        if len(row) != width or not all(map(math.isfinite, row)):
            return ParseError, ln
        rows.append(row)
    return rows


_PIECES = ["0.5", "-1e3", " 2 ", "\t7", "nan", "inf", "1_0", "\u00a01", "\u0661", "", " ",
           "#", "x", "1e400", "0x1p3", "\x0c", "+.5"]


def test_read_rows_is_the_documented_rule(tmp_path):
    """Seeded random files: ``read_rows`` returns exactly the rows the
    documented rule reads, or raises the error the rule names on the same
    line. Its one-pass parse never refuses what the rule accepts, and its
    line walk never accepts what the one-pass parse refused."""
    path = tmp_path / "rows.txt"
    for seed in range(400):
        rng = random.Random(seed)
        width, comments = rng.choice([1, 2, 3]), rng.random() < 0.5
        lines = []
        for _ in range(rng.randrange(6)):
            if rng.random() < 0.15:
                lines.append(rng.choice(["", "  ", "# c,1", " #", "\x0c"]))
                continue
            # mostly good rows, a few with a bad field or a field too many or few
            cells = [rng.choice(["0.5", "-1e3", " 2 ", "+.5"]) for _ in range(width)]
            if rng.random() < 0.3:
                cells[rng.randrange(width)] = rng.choice(_PIECES)
            if rng.random() < 0.1:
                cells = cells[1:] if rng.random() < 0.5 else cells + ["1"]
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf8")
        expected = _documented_rule(lines, width, comments)
        if isinstance(expected, tuple):
            error, ln = expected
            with pytest.raises(error, match=f": line {ln}: "):
                read_rows(path, read_file(path), width, comments=comments)
        else:
            got = read_rows(path, read_file(path), width, comments=comments)
            assert got.shape == (len(expected), width), (seed, lines)
            assert got.tolist() == expected, (seed, lines)


@pytest.mark.parametrize("chunk", [1, 5])
def test_read_rows_in_chunks_of_a_line_or_two_is_the_documented_rule(tmp_path, monkeypatch, chunk):
    """The seeded random files above, read in chunks of a line or two, where
    every line opens or closes a chunk."""
    monkeypatch.setattr(strictjson, "CHUNK_CHARS", chunk)
    test_read_rows_is_the_documented_rule(tmp_path)


def test_read_rows_numbers_lines_from_first(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("header\n0.5\n\noops\n", encoding="utf8")
    with pytest.raises(ParseError, match="line 4: not a number: 'oops'"):
        read_rows(path, read_file(path).partition("\n")[2], 1, first=2)
    assert np.array_equal(read_rows(path, "0.5\n0.25", 1, first=2), [[0.5], [0.25]])


# A chunk is the fewest whole lines of at least CHUNK_CHARS characters, so
# lines of "0.5\n" fill the first chunk with exactly CHUNK_CHARS // 4 lines.
_EDGE = CHUNK_CHARS // 4


@pytest.mark.parametrize("changes, comments", [
    ({}, False),                                 # exactly one chunk
    ({_EDGE + 1: "0.5"}, False),                 # one line past it
    ({_EDGE: "x.5", _EDGE + 1: "0.5"}, False),   # a bad last line of a chunk
    ({_EDGE + 1: "x.5"}, False),                 # a bad first line of a chunk
    ({_EDGE + 1: "1,2", _EDGE + 2: "0.5"}, False),
    ({_EDGE: "   ", _EDGE + 1: "0.5"}, False),   # a blank line closes a chunk
    ({_EDGE + 1: "", _EDGE + 2: "0.5"}, False),  # and opens one
    ({_EDGE + 1: "", _EDGE + 9: "nan"}, False),  # the walk numbers the lines after it
    ({_EDGE: "# a", _EDGE + 1: "# b", _EDGE + 2: "-1"}, True),
])
def test_read_rows_at_a_chunk_edge(tmp_path, changes, comments):
    """Bad, blank and comment lines on either side of the first chunk's end
    give the rows, or the error and line, of the documented rule."""
    lines = ["0.5"] * max([_EDGE, *changes])
    for ln, line in changes.items():
        lines[ln - 1] = line
    if not changes:
        assert len("\n".join(lines) + "\n") == CHUNK_CHARS
    expected = _documented_rule(lines, 1, comments)
    if isinstance(expected, tuple):
        error, ln = expected
        with pytest.raises(error, match=f": line {ln}: "):
            _write_and_read(tmp_path, lines, 1, comments)
    else:
        assert _write_and_read(tmp_path, lines, 1, comments).tolist() == expected


def test_read_rows_of_a_full_scale_checkpoint_holds_a_chunk_of_lines():
    """The 194,090 values of a full-scale checkpoint, one a line: the rows
    are read exactly, holding one chunk's lines at a time beside the chunk
    tables and their joined copy, where a list of all lines took ~15 MB."""
    values = np.random.default_rng(5).uniform(-0.1, 0.1, size=194_090)
    text = "".join("%.17g\n" % v for v in values.tolist())
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        table = read_rows("ckpt.txt", text, 1, first=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(table[:, 0], values)
    assert peak - start < 2 * table.nbytes + 2**20
