"""The evidence tool ``tools/same_artifacts.py`` on small files."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_artifacts.py"
_SPEC = importlib.util.spec_from_file_location("same_artifacts", _PATH)
same_artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_artifacts)


def _compare(tmp_path, a, b):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(a)
    pb.write_text(b)
    return same_artifacts.compare(pa, pb)


@pytest.mark.parametrize("a, b, verdict", [
    ("metric,value\nenergy,0.5\nbias,0.0\n", "metric,value\nenergy,0.5\nbias,0.0\n",
     "identical"),
    ("x,0.0\ny,2\n", "x,-0.0\ny,2\n", "1 of 2 numbers differ, 1 only in the sign of zero"),
    ('{"r": nan, "s": 1.5}', '{"r": 0.25, "s": 1.5}', "1 of 2 numbers differ, 1 in a NaN or an infinity"),
    ('{"r": NaN}', '{"r": -nan}', "1 of 1 numbers differ, 1 in a NaN or an infinity"),
    ("x,1.0\ny,2\n", "x,1.00\ny,2\n", "the same numbers, written differently"),
    ("x,1.0\ny,nan\n", "x,1.0\ny,NaN\n", "the same numbers, written differently"),
    ("x,1.0\ny,2\n", "x,1.5\ny,2\n",
     "1 of 2 numbers differ, largest absolute 0.5, largest relative 0.333"),
    ("x,1.0\n", "z,1.0\n", "text differs beyond its numbers, first at line 1"),
    (f"# config_sha256={'0a' * 32}\nx,1.0\n", f"# config_sha256={'b1' * 32}\nx,1.0\n",
     "only the config hash differs"),
    (f'{{"config_sha256": "{"0a" * 32}", "r": 1.5}}', f'{{"config_sha256": "{"b1" * 32}", "r": 1.5}}',
     "only the config hash differs"),
    (f"# config_sha256={'0a' * 32}\nx,1.0\n", f"# config_sha256={'b1' * 32}\nx,1.5\n",
     "1 of 1 numbers differ, largest absolute 0.5, largest relative 0.333"),
], ids=["identical", "sign-of-zero", "nan-vs-number", "nan-payload", "respelled",
        "nan-respelled", "value", "text", "csv-hash", "json-hash", "hash-and-value"])
def test_compare_reads_bits(tmp_path, a, b, verdict):
    """Numbers are compared as float64 bit patterns: a zero that changes
    sign, a NaN against a number and a NaN against a NaN of the other sign
    are changes, each named; the same bits written differently are not."""
    assert _compare(tmp_path, a, b) == verdict


def test_command_list_runs_every_subcommand(tmp_path, monkeypatch):
    """The compared command list runs every ``disconet`` subcommand, so a new
    subcommand cannot miss the byte comparison. The input writers are
    stubbed: only the list is read."""
    from disconet.cli import _COMMANDS

    monkeypatch.setattr(same_artifacts.inputs, "write_csv", lambda *args: None)
    monkeypatch.setattr(same_artifacts.inputs, "write_checkpoint", lambda *args: None)
    commands = same_artifacts.write_inputs(tmp_path)
    assert {argv[0] for _, argv in commands} == set(_COMMANDS)
