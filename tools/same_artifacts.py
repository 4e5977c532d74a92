"""Compare what two source trees of disconet write, command by command.

Usage, from anywhere:

    python3 tools/same_artifacts.py PARENT CHANGED [--work DIR]

PARENT and CHANGED are checkouts (each with a ``src/disconet``). The script
writes one set of seeded inputs into the work directory (a fresh temporary
one unless ``--work`` names a new one), then runs one fixed list of ``disconet``
commands from each tree's ``src/``, each in a fresh Python process with one
BLAS thread, and compares their artifacts: every file a command writes to
``--out``, and the standard output of ``gradcheck``. For each artifact it
prints ``identical``, or how many of its numbers differ with the largest
absolute and relative difference, or where its text differs apart from the
numbers. Numbers are compared by their float64 bits, so a zero whose sign
changes and a NaN or infinity on either side count as changes, each named.
The exit status is 0 when every artifact and exit code is the same, else 1.

Both trees run on one machine with the same BLAS, so any difference comes
from the code. The list covers:

- ``eval`` shaped as the ``eval-full`` benchmark workload (2,000 frames, a
  full-scale checkpoint, K = 32, joints of 3 coordinates): plain, with
  ``zero_noise``, with ``base_sigma`` 0.3, with both, and on a noise-free
  checkpoint, there also at K = 30;
- ``eval`` on 1,999 frames, plain and with ``base_sigma`` 0.3: eval draws
  and scores its candidates 16 frames at a time, so its last block is short;
- ``train`` shaped as the ``train-desk`` and ``train-full`` workloads, the
  second also on a noise-free net at K = 15, and ``toy`` as ``toy-grid``;
- ``train`` on the desk net with ``checkpoint_every`` 1 over 3 epochs, L2 on
  the weights, a short last minibatch (924 training rows in batches of 100)
  and a validation set as large as a batch, so every epoch's checkpoint is
  compared;
- the ``toy``, ``train``, ``eval`` and ``sweep`` configs of acceptance
  criterion 9 (its ``eval`` reads that ``train``'s checkpoint);
- ``train`` and ``eval`` on configs that hold only the required keys, so
  every default is used (that ``eval`` reads that ``train``'s checkpoint);
- ``gradcheck`` on a noisy and on a noise-free desk net.

Every command runs with ``--seed 1``.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
SEED = 1
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

DESK_NET = {"x_dim": 1, "y_dim": 1, "z_dim": 8, "encoder_widths": [32],
            "decoder_widths": [32, 32], "noise_enabled": True}
FULL_NET = {"x_dim": 1, "y_dim": 42, "z_dim": 200, "encoder_widths": [256],
            "decoder_widths": [256, 256], "noise_enabled": True}
C9_NET = {"x_dim": 1, "y_dim": 1, "z_dim": 2, "encoder_widths": [4], "decoder_widths": [4]}
C9_TRAIN = {"epochs": 2, "batch_size": 16, "seed": 0, "val_count": 8}
C9_DATA = {"generator": "conditional_bimodal", "n": 48}
EVAL = {"num_candidates": 32, "group_size": 3, "distances": [0.5, 1.0, 1.5, 2.0, 3.0]}

# A number standing alone: not part of a word such as a hex digest. NaN and
# infinity count as numbers, as Python and JSON spell them.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|(?i:nan|inf(?:inity)?))(?![\w.])")


def bimodal(n, rng):
    """y = +-(1 + x^2) + noise with x uniform on [-1, 1]."""
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    sign = rng.integers(0, 2, size=(n, 1)) * 2 - 1
    return x, sign * (1.0 + x * x) + 0.1 * rng.standard_normal((n, 1))


def pose(n, rng):
    """42 outputs, two modes per x: y = a + b x +- c (1 + x^2) + noise."""
    a, b, c = np.random.default_rng(20160606).normal(0.0, 0.5, size=(3, 42))
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    sign = (rng.integers(0, 2, size=(n, 1)) * 2 - 1).astype(np.float64)
    return x, a + b * x + sign * c * (1.0 + x * x) + 0.1 * rng.standard_normal((n, 42))


def write_csv(path, x, y):
    rows = np.concatenate([x, y], axis=1)
    path.write_text("\n".join(",".join(map(repr, row.tolist())) for row in rows) + "\n")


def write_checkpoint(path, net, rng):
    """The documented text format: a JSON header line, then per dense layer
    the row-major weights and the bias, one value per line."""
    enc = [net["x_dim"]] + net["encoder_widths"]
    noise = net["z_dim"] if net["noise_enabled"] else 0
    dec = [enc[-1] + noise] + net["decoder_widths"] + [net["y_dim"]]
    values = []
    for fi, fo in list(zip(enc, enc[1:])) + list(zip(dec, dec[1:])):
        a = math.sqrt(6.0 / (fi + fo))
        values += rng.uniform(-a, a, size=fi * fo).tolist() + rng.uniform(-0.1, 0.1, size=fo).tolist()
    header = {"format": "disconet-params", "version": 1, "net": net}
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + "\n".join(map(repr, values)) + "\n")


def write_config(path, doc):
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2) + "\n")
    return str(path)


def write_inputs(work):
    """Every input file, and the command list as (name, argv) pairs; an
    argv item ``{name}`` stands for that earlier command's output directory."""
    rng = np.random.default_rng([SEED, 16])
    write_csv(work / "frames.csv", *pose(2000, rng))
    write_csv(work / "desk.csv", *bimodal(1024, rng))
    write_csv(work / "full.csv", *pose(448, rng))
    write_checkpoint(work / "full.txt", FULL_NET, rng)
    write_checkpoint(work / "noise_free.txt", dict(FULL_NET, noise_enabled=False), rng)
    write_csv(work / "frames_1999.csv", *pose(1999, rng))

    def cfg(name, doc):
        return write_config(work / f"{name}.json", doc)

    frames = ["--data", str(work / "frames.csv")]
    full = ["--checkpoint", str(work / "full.txt")]
    train = {"lr": 0.01, "momentum": 0.9, "batch_size": 64, "seed": SEED}
    objective = {"gamma": 0.5, "num_candidates": 16}
    no_data = {"generator": None}
    toy_grid = {"seeds": [SEED], "n_train": 400, "n_test": 400, "m": 24, "gamma": 0.5,
                "mu_values": [round(-2.0 + 0.5 * i, 10) for i in range(9)],
                "sigma_values": [round(0.3 + 0.3 * i, 10) for i in range(10)]}
    gradcheck = {"gammas": [0.0, 0.5], "betas": [1.0, 1.5]}
    return [
        ("eval_full", ["eval", "--config", cfg("eval", {"data": no_data, "eval": EVAL})]
         + full + frames),
        ("eval_full_zero_noise", ["eval", "--config", cfg("eval_zero_noise", {
            "data": no_data, "eval": dict(EVAL, zero_noise=True)})] + full + frames),
        ("eval_full_base_sigma", ["eval", "--config", cfg("eval_base_sigma", {
            "data": no_data, "eval": dict(EVAL, base_sigma=0.3)})] + full + frames),
        ("eval_full_base_sigma_zero_noise", ["eval", "--config", cfg("eval_base_sigma_zero_noise", {
            "data": no_data, "eval": dict(EVAL, base_sigma=0.3, zero_noise=True)})]
         + full + frames),
        ("eval_full_noise_free", ["eval", "--config", str(work / "eval.json"),
                                  "--checkpoint", str(work / "noise_free.txt")] + frames),
        ("eval_full_noise_free_k30", ["eval", "--config", cfg("eval_k30", {
            "data": no_data, "eval": dict(EVAL, num_candidates=30)}),
            "--checkpoint", str(work / "noise_free.txt")] + frames),
        ("eval_1999", ["eval", "--config", str(work / "eval.json")] + full
         + ["--data", str(work / "frames_1999.csv")]),
        ("eval_1999_base_sigma", ["eval", "--config", str(work / "eval_base_sigma.json")] + full
         + ["--data", str(work / "frames_1999.csv")]),
        ("train_desk", ["train", "--config", cfg("train_desk", {
            "net": DESK_NET, "objective": objective, "data": no_data,
            "train": dict(train, epochs=6, val_count=256)}), "--data", str(work / "desk.csv")]),
        ("train_full", ["train", "--config", cfg("train_full", {
            "net": FULL_NET, "objective": objective, "data": no_data,
            "train": dict(train, epochs=1, val_count=64)}), "--data", str(work / "full.csv")]),
        ("train_full_noise_free", ["train", "--config", cfg("train_full_noise_free", {
            "net": dict(FULL_NET, noise_enabled=False), "data": no_data,
            "objective": dict(objective, num_candidates=15),
            "train": dict(train, epochs=1, val_count=64)}), "--data", str(work / "full.csv")]),
        ("train_checkpoints", ["train", "--config", cfg("train_checkpoints", {
            "net": DESK_NET, "objective": objective, "data": no_data,
            "train": dict(train, epochs=3, batch_size=100, val_count=100, l2=0.001,
                          checkpoint_every=1)}), "--data", str(work / "desk.csv")]),
        ("toy_grid", ["toy", "--config", cfg("toy_grid", {"toy": toy_grid})]),
        ("c9_toy", ["toy", "--config", cfg("c9_toy", {"toy": {
            "seeds": [0], "n_train": 40, "n_test": 40, "m": 8,
            "mu_values": [-1.4, 0.0, 1.4], "sigma_values": [0.3, 0.9, 1.5]}})]),
        ("c9_train", ["train", "--config", cfg("c9_train", {
            "net": C9_NET, "objective": {"gamma": 0.5, "num_candidates": 3},
            "train": C9_TRAIN, "data": C9_DATA})]),
        ("c9_eval", ["eval", "--config", cfg("c9_eval", {
            "data": C9_DATA, "eval": {"num_candidates": 3, "distances": [0.5, 1.0]}}),
            "--checkpoint", "{c9_train}/checkpoint.txt"]),
        ("c9_sweep", ["sweep", "--config", cfg("c9_sweep", {
            "net": C9_NET, "objective": {"gamma": 0.5, "num_candidates": 3},
            "train": C9_TRAIN, "data": C9_DATA,
            "sweep": {"seeds": [0], "l2_values": [0.0001, 0.01]}})]),
        ("required_train", ["train", "--config", cfg("required_train", {
            "net": {"x_dim": 1, "y_dim": 1}, "objective": {}, "train": {}, "data": {}})]),
        ("required_eval", ["eval", "--config", cfg("required_eval", {"data": {}, "eval": {}}),
                           "--checkpoint", "{required_train}/checkpoint.txt"]),
        ("gradcheck", ["gradcheck", "--config", cfg("gradcheck", {
            "net": DESK_NET, "gradcheck": gradcheck})]),
        ("gradcheck_noise_free", ["gradcheck", "--config", cfg("gradcheck_noise_free", {
            "net": dict(DESK_NET, noise_enabled=False), "gradcheck": gradcheck})]),
    ]


def run_tree(tree, commands, outs):
    """Run every command from `tree` in a fresh process; returns the exit
    codes by command name. ``gradcheck`` prints its result, so its standard
    output is saved as the artifact ``stdout.txt``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"), **BLAS_ENV)
    codes = {}
    for name, argv in commands:
        out = outs / name
        argv = [re.sub(r"\{(\w+)\}", lambda m: str(outs / m.group(1)), a) for a in argv]
        argv += ["--seed", str(SEED)]
        if argv[0] != "gradcheck":
            argv += ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "disconet.cli", *argv], env=env,
                              capture_output=True, text=True)
        if argv[0] == "gradcheck":
            out.mkdir(parents=True)
            (out / "stdout.txt").write_text(proc.stdout)
        codes[name] = proc.returncode
    return codes


def compare(a, b):
    """One line on how file `b` differs from file `a`. Numbers are compared
    by their float64 bits, so a zero that changes sign and a change to or
    from a NaN (or an infinity) are changes, and each kind is named."""
    ta, tb = a.read_text(), b.read_text()
    if ta == tb:
        return "identical"
    if NUMBER.split(ta) != NUMBER.split(tb):
        first = next((i for i, (x, y) in enumerate(zip(ta.splitlines(), tb.splitlines()), 1)
                      if NUMBER.split(x) != NUMBER.split(y)), None)
        return f"text differs beyond its numbers, first at {f'line {first}' if first else 'the end'}"
    na = np.array([float(v) for v in NUMBER.findall(ta)], dtype=np.float64)
    nb = np.array([float(v) for v in NUMBER.findall(tb)], dtype=np.float64)
    moved = na.view(np.uint64) != nb.view(np.uint64)
    if not moved.any():
        return "the same numbers, written differently"
    special = moved & ~(np.isfinite(na) & np.isfinite(nb))
    zero = moved & (na == 0.0) & (nb == 0.0)
    value = moved & ~special & ~zero
    parts = [f"{moved.sum()} of {na.size} numbers differ"]
    if value.any():
        diff = np.abs(na - nb)[value]
        rel = diff / np.maximum(np.abs(na), np.abs(nb))[value]
        parts.append(f"largest absolute {diff.max():.3g}, largest relative {rel.max():.3g}")
    if zero.any():
        parts.append(f"{zero.sum()} only in the sign of zero")
    if special.any():
        parts.append(f"{special.sum()} in a NaN or an infinity")
    return ", ".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("changed")
    parser.add_argument("--work", default=None, help="new directory for inputs and outputs")
    args = parser.parse_args()
    for tree in (args.parent, args.changed):
        if not (Path(tree) / "src" / "disconet").is_dir():
            parser.error(f"{tree} holds no src/disconet")
    if args.work and Path(args.work).exists():
        parser.error(f"--work {args.work} exists; give a new directory")
    work = Path(args.work or tempfile.mkdtemp(prefix="same_artifacts_"))
    work.mkdir(parents=True, exist_ok=True)
    commands = write_inputs(work)
    sides = {"parent": args.parent, "changed": args.changed}
    codes = {side: run_tree(tree, commands, work / side) for side, tree in sides.items()}
    same = True
    for name, _ in commands:
        pa, pb = work / "parent" / name, work / "changed" / name
        if codes["parent"][name] != codes["changed"][name]:
            same = False
            print(f"{name}: exit {codes['parent'][name]} -> {codes['changed'][name]}")
        elif codes["parent"][name]:
            print(f"{name}: exit {codes['parent'][name]} on both sides")
        files = sorted({p.relative_to(d) for d in (pa, pb) if d.exists()
                        for p in d.rglob("*") if p.is_file()})
        if not files:
            print(f"{name}: no artifacts (exit {codes['parent'][name]})")
        for rel in files:
            if not (pa / rel).exists() or not (pb / rel).exists():
                verdict = f"only in {'changed' if (pb / rel).exists() else 'parent'}"
            else:
                verdict = compare(pa / rel, pb / rel)
            same &= verdict == "identical"
            print(f"{name}/{rel}: {verdict}")
    print(f"inputs and outputs in {work}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
