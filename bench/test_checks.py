"""The benchmark's output checks accept real artifacts and reject corrupted ones.

Run from the root of the repository:

    python3 -m pytest bench/test_checks.py

Each test writes one workload's inputs, runs the real subcommand in
process, checks the artifacts, corrupts one of them and checks again.
"""

import csv
import json
import sys

import numpy as np
import pytest

import check
import run

sys.path.insert(0, str(run.ROOT / "src"))
from disconet import cli  # noqa: E402


def produce(workload, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(workload.argv(out))
    return out, rc


def test_eval_check_rejects_shifted_probloss(tmp_path):
    workload = run.Eval(tmp_path, seed=3)
    out, rc = produce(workload, tmp_path)
    assert rc == 0
    workload.check(out, rc)

    path = out / "metrics.json"
    doc = json.loads(path.read_text())
    doc["probloss"]["value"] += 10 * doc["probloss"]["sem"]
    path.write_text(json.dumps(doc))
    with pytest.raises(check.CheckError, match="probloss"):
        workload.check(out, rc)

    doc["mejee"]["value"] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(check.CheckError, match="NaN"):
        workload.check(out, rc)


def _swap_rows(rows):
    rows[0]["train_loss"], rows[1]["train_loss"] = rows[1]["train_loss"], rows[0]["train_loss"]


def _swap_diagonal(rows):
    rows[0]["task_dim1"], rows[1]["task_dim2"] = rows[1]["task_dim2"], rows[0]["task_dim1"]


@pytest.mark.parametrize("corrupt", [_swap_diagonal, _swap_rows])
def test_toy_check_rejects_swapped_diagonal(tmp_path, corrupt):
    workload = run.Toy(tmp_path, seed=0)
    out, rc = produce(workload, tmp_path)
    workload.check(out, rc)

    path = out / "cross_table.csv"
    lines = path.read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    corrupt(rows)
    body = [",".join(row.values()) for row in rows]
    path.write_text("\n".join(lines[:2] + body) + "\n")
    with pytest.raises(check.CheckError):
        workload.check(out, rc)


def test_train_check_rejects_perturbed_weight(tmp_path):
    workload = run.Train(run.TRAIN_DESK, tmp_path, seed=5)
    out, rc = produce(workload, tmp_path)
    assert rc == 0
    workload.check(out, rc)

    path = out / "checkpoint.txt"
    lines = path.read_text().splitlines()
    net, layers = check.read_checkpoint(path)
    # Push the output weight of largest magnitude 2 further from zero. The
    # output layer's weights are followed only by its y_dim biases.
    w_out = layers[-1][0].ravel()
    i = int(np.argmax(np.abs(w_out)))
    line = len(lines) - net["y_dim"] - w_out.size + i
    lines[line] = repr(float(w_out[i] + 2.0 * np.sign(w_out[i])))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(check.CheckError, match="val_probloss"):
        workload.check(out, rc)

    lines[line] = "nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(check.CheckError, match="non-finite"):
        workload.check(out, rc)
