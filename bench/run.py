"""Benchmark of the disconet command line: training, full-scale eval, toy grid.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller issues one ``disconet`` subcommand at a time, each
in a fresh Python process (``bench/worker.py``) that imports the package
from the checkout's ``src/``, and checks every output with ``check.py``
before issuing the next. An operation is one subcommand call and its
check. Inputs are written from the seed before the loop starts; every
operation of a run gets the same inputs. The loop stops before an
operation that would end past S seconds, after at least MIN_OPS
operations.

Other tenants of the shared cores slow whole stretches of 10-60 s by up to
half again. Each worker therefore times a fixed piece of reference work
just before and just after its work phase, and every reported time is the
measured time divided by that operation's slowdown (mean reference time
over REFERENCE_S): seconds on an undisturbed core.

``--trace 0`` prints the end-to-end metrics, medians over the run's
operations. ``--trace 1`` alternates untraced and traced operations and
prints the per-layer metrics, lower medians over the traced operations, plus
``trace.overhead_s``: the traced minus the untraced median work phase.
The last line of standard output is one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import inputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

MIN_OPS = 3
BLAS_THREADS = 1
# Seconds the worker's reference work takes on an undisturbed core of the
# reference machine (see README). Every reported time is a measured time
# divided by the operation's slowdown: its reference work's time over this.
REFERENCE_S = 0.12
OP_TIMEOUT_S = 150

DESK_NET = {"x_dim": 1, "y_dim": 1, "z_dim": 8, "encoder_widths": [32], "decoder_widths": [32, 32],
            "noise_enabled": True}
FULL_NET = {"x_dim": 1, "y_dim": inputs.POSE_DIM, "z_dim": 200,
            "encoder_widths": [256], "decoder_widths": [256, 256], "noise_enabled": True}
TRAIN_DESK = {"net": DESK_NET, "n": 1024, "val": 256, "epochs": 6, "data": inputs.bimodal}
TRAIN_FULL = {"net": FULL_NET, "n": 448, "val": 64, "epochs": 1, "data": inputs.pose}
EVAL_FRAMES = 2000
EVAL_K = 32
EVAL_DISTANCES = [0.5, 1.0, 1.5, 2.0, 3.0]
TRAIN_K = 16
HELDOUT = 2048


class Train:
    """``disconet train --data``; an item is one training example per epoch."""

    def __init__(self, spec, work, seed):
        self.spec, self.work, self.seed = spec, work, seed
        data = spec["data"]
        inputs.write_csv(work / "data.csv", *data(spec["n"], inputs.rng_for(seed, "train-data")))
        inputs.write_config(work / "train.json", {
            "net": spec["net"],
            "objective": {"gamma": 0.5, "num_candidates": TRAIN_K},
            "train": {"lr": 0.01, "momentum": 0.9, "batch_size": 64, "epochs": spec["epochs"],
                      "seed": seed, "val_count": spec["val"]},
            "data": {"generator": None},
        })
        self.heldout = data(HELDOUT, inputs.rng_for(seed, "heldout"))
        self.items = (spec["n"] - spec["val"]) * spec["epochs"]
        self._refs = {}

    def argv(self, out):
        return ["train", "--config", str(self.work / "train.json"), "--out", str(out),
                "--data", str(self.work / "data.csv")]

    def check(self, out, rc):
        check.require(rc == 0, f"train exited {rc}")
        ckpt = out / "checkpoint.txt"
        key = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        if key not in self._refs:
            rng = inputs.rng_for(self.seed, "check-noise")
            self._refs[key] = check.probloss_from_checkpoint(ckpt, *self.heldout, TRAIN_K, rng)
        return check.check_train(out, self.spec["epochs"], self._refs[key])


class Eval:
    """``disconet eval`` with a full-scale checkpoint; an item is one frame."""

    def __init__(self, work, seed):
        self.work = work
        x, y = inputs.pose(EVAL_FRAMES, inputs.rng_for(seed, "eval-data"))
        inputs.write_csv(work / "frames.csv", x, y)
        inputs.write_checkpoint(work / "checkpoint.txt", FULL_NET, inputs.rng_for(seed, "checkpoint"))
        inputs.write_config(work / "eval.json", {
            "data": {"generator": None},
            "eval": {"num_candidates": EVAL_K, "group_size": inputs.JOINT_DIM,
                     "distances": EVAL_DISTANCES, "seed": seed},
        })
        self.ref = check.EvalReference(work / "checkpoint.txt", x, y, EVAL_K, inputs.JOINT_DIM,
                                       EVAL_DISTANCES, inputs.rng_for(seed, "check-noise"))
        self.items = EVAL_FRAMES

    def argv(self, out):
        return ["eval", "--config", str(self.work / "eval.json"), "--out", str(out),
                "--checkpoint", str(self.work / "checkpoint.txt"), "--data", str(self.work / "frames.csv")]

    def check(self, out, rc):
        check.require(rc == 0, f"eval exited {rc}")
        return check.check_eval(out, self.ref)


class Toy:
    """``disconet toy`` on the default grid for one seed; an item is one grid
    point fitted under one loss."""

    def __init__(self, work, seed):
        self.work = work
        self.config = {"toy": {"seeds": [seed], "n_train": 400, "n_test": 400, "m": 24, "gamma": 0.5,
                               "mu_values": [round(-2.0 + 0.5 * i, 10) for i in range(9)],
                               "sigma_values": [round(0.3 + 0.3 * i, 10) for i in range(10)]}}
        inputs.write_config(work / "toy.json", self.config)
        toy = self.config["toy"]
        self.items = len(toy["mu_values"]) ** 2 * len(toy["sigma_values"]) ** 2 * len(check.TOY_LOSSES)
        self.ref = check.ToyReference(inputs.rng_for(seed, "check-toy"))

    def argv(self, out):
        return ["toy", "--config", str(self.work / "toy.json"), "--out", str(out)]

    def check(self, out, rc):
        return check.check_toy(out, self.config, self.ref, rc)


WORKLOADS = {
    "train-desk": lambda work, seed: Train(TRAIN_DESK, work, seed),
    "train-full": lambda work, seed: Train(TRAIN_FULL, work, seed),
    "eval-full": Eval,
    "toy-grid": Toy,
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_op(argv, traced, stamps_path):
    """One subcommand in a fresh worker process; returns its stamps with
    times in reference seconds, or ``rc`` None if it stopped short."""
    if stamps_path.exists():
        stamps_path.unlink()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(stamps_path), "1" if traced else "0", "--", *argv]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
    stamps = {}
    if proc.returncode == 0 and stamps_path.exists():
        stamps = json.loads(stamps_path.read_text(encoding="utf8"))
    if "work0" not in stamps:
        return {"rc": None, "stderr": proc.stderr}
    stamps["slowdown"] = statistics.mean(stamps["ref_s"]) / REFERENCE_S
    stamps["wall_setup_s"] = stamps["config1"] - t_spawn
    stamps["wall_work_s"] = stamps["work1"] - stamps["work0"]
    stamps["setup_s"] = stamps["wall_setup_s"] / stamps["slowdown"]
    stamps["work_s"] = stamps["wall_work_s"] / stamps["slowdown"]
    return stamps


def warm_up():
    """Import the package once so the page cache and bytecode are warm."""
    subprocess.run([sys.executable, "-c", "import disconet"], cwd=ROOT, env=child_env(),
                   check=True, timeout=OP_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "disconet" / "__init__.py").is_file():
        print(f"error: no disconet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={BLAS_THREADS}")
    warm_up()

    round_kinds = (False, True) if args.trace else (False,)
    t_start = time.monotonic()
    deadline = t_start + args.seconds
    ops, correct, failed, round_s = [], True, 0, 0.0
    min_rounds = 2 if args.trace else MIN_OPS
    while len(ops) < min_rounds * len(round_kinds) or time.monotonic() + round_s <= deadline:
        t_round = time.monotonic()
        for traced in round_kinds:
            out = work / f"out{len(ops)}"
            shutil.rmtree(out, ignore_errors=True)
            stamps = run_op(workload.argv(out), traced, work / "stamps.json")
            stamps["traced"] = traced
            ops.append(stamps)
            if stamps["rc"] is None:
                failed += 1
                print(f"op {len(ops)}: worker failed\n{stamps['stderr']}", file=sys.stderr)
                continue
            try:
                stamps["energy"] = workload.check(out, stamps["rc"])
            except (check.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                correct = False
                print(f"op {len(ops)}: check failed: {exc!r}", file=sys.stderr)
                continue
            if stamps["module"] != str(ROOT / "src" / "disconet" / "__init__.py"):
                correct = False
                print(f"op {len(ops)}: imported {stamps['module']}, not the checkout", file=sys.stderr)
            print(f"op {len(ops)}{' traced' if traced else ''}: wall setup {stamps['wall_setup_s']:.4f} s, "
                  f"wall work {stamps['wall_work_s']:.4f} s, slowdown {stamps['slowdown']:.3f}, "
                  f"rss {stamps['maxrss_mb']:.1f} MB, energy {stamps['energy']!r}")
            shutil.rmtree(out, ignore_errors=True)
        round_s = time.monotonic() - t_round

    done = [s for s in ops if s["rc"] is not None and "energy" in s]
    plain = [s for s in done if not s["traced"]]
    if not plain:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        traced = [s for s in done if s["traced"]]
        if not traced:
            print("error: no traced operation completed", file=sys.stderr)
            return 1
        for s in traced:
            layers = s["layers"]
            # Self times of every module plus the tracer's own time tile the
            # traced work phase (the subcommand's root span).
            tiled = sum(layers[k] for k in spans.TIME_METRICS)
            if abs(tiled - layers["work_s"]) > 1e-9 * max(1.0, layers["work_s"]):
                correct = False
                print(f"trace: self times sum to {tiled!r}, work phase {layers['work_s']!r}", file=sys.stderr)
            layers["disconet.import_s"] = s["import1"] - s["import0"]
            layers["cli.config_s"] = s["config_s"]
            for k in spans.TIME_METRICS + ("disconet.import_s", "cli.config_s"):
                layers[k] /= s["slowdown"]
        names = [k for k in traced[0]["layers"] if k != "work_s"]
        metrics = {k: _metric(statistics.median_low(s["layers"][k] for s in traced), k) for k in names}
        overhead = (statistics.median(s["work_s"] for s in traced)
                    - statistics.median(s["work_s"] for s in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "items_per_s": {"value": statistics.median(workload.items / s["work_s"] for s in plain),
                            "unit": "1/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["maxrss_mb"] for s in plain), "unit": "MB"},
            "energy_score": {"value": statistics.median(s["energy"] for s in plain), "unit": "score"},
        }
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": dict(sorted(metrics.items()))}))
    return 0


def _metric(value, name):
    if name.endswith("gflop_per_s"):
        unit = "GFLOP/s"
    elif name.endswith("_s"):
        unit = "s"
    else:
        unit = "count"
    return {"value": value, "unit": unit}


if __name__ == "__main__":
    sys.exit(main())
