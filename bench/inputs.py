"""Seeded inputs for the benchmark workloads.

Everything the program receives is written here from the workload seed:
JSON configs, CSV datasets and, for ``eval-full``, a full-scale checkpoint
in the documented text format. The generators are the benchmark's own, so
the checks in ``check.py`` can draw fresh held-out data from the same
distributions without reading the program's internals.
"""

import json
import math
import zlib

import numpy as np

SCHEMA_VERSION = 1

# The 42-coordinate task stands in for hand pose: 14 joints x 3 coordinates.
JOINTS = 14
JOINT_DIM = 3
POSE_DIM = JOINTS * JOINT_DIM
NOISE_SIGMA = 0.1

# Fixed make-up of the pose task, the same for every seed: per-coordinate
# offset, slope and mode separation. Seeds only draw the frames.
_BASIS = np.random.default_rng(20160606).normal(0.0, 0.5, size=(3, POSE_DIM))


def rng_for(seed, *purpose):
    """Generator for one purpose under a workload seed."""
    words = [int(seed)] + [zlib.crc32(p.encode("utf8")) for p in purpose]
    return np.random.default_rng(words)


def bimodal(n, rng):
    """y = +-(1 + x^2) + noise with x uniform on [-1, 1]: two modes per x."""
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    sign = rng.integers(0, 2, size=(n, 1)) * 2 - 1
    y = sign * (1.0 + x * x) + NOISE_SIGMA * rng.standard_normal((n, 1))
    return x, y


def pose(n, rng):
    """42-coordinate bimodal task: y = a + b x +- c (1 + x^2) + noise."""
    a, b, c = _BASIS
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    sign = (rng.integers(0, 2, size=(n, 1)) * 2 - 1).astype(np.float64)
    y = a + b * x + sign * c * (1.0 + x * x) + NOISE_SIGMA * rng.standard_normal((n, POSE_DIM))
    return x, y


def write_csv(path, x, y):
    """Rows of x then y, comma-separated, values via repr."""
    rows = np.concatenate([x, y], axis=1)
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
    with open(path, "w", encoding="utf8") as fh:
        fh.write("# benchmark dataset\n" + text + "\n")


def layer_dims(net):
    """(fan_in, fan_out) per dense layer: encoder, noise concat, decoder, output."""
    dims, h = [], net["x_dim"]
    for w in net["encoder_widths"]:
        dims.append((h, w))
        h = w
    h += net["z_dim"] if net["noise_enabled"] else 0
    for w in net["decoder_widths"]:
        dims.append((h, w))
        h = w
    dims.append((h, net["y_dim"]))
    return dims


def write_checkpoint(path, net, rng):
    """Checkpoint with uniform Glorot weights and small biases.

    Format: line 1 a JSON header naming the format, version and
    architecture; then one value per line, per layer the row-major weight
    matrix followed by the bias vector.
    """
    header = {"format": "disconet-params", "version": 1, "net": net}
    values = []
    for fi, fo in layer_dims(net):
        a = math.sqrt(6.0 / (fi + fo))
        values.append(rng.uniform(-a, a, size=fi * fo))
        values.append(rng.uniform(-0.1, 0.1, size=fo))
    flat = np.concatenate(values)
    with open(path, "w", encoding="utf8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write("\n".join(repr(float(v)) for v in flat) + "\n")


def write_config(path, doc):
    with open(path, "w", encoding="utf8") as fh:
        json.dump(dict(doc, schema_version=SCHEMA_VERSION), fh, indent=2, sort_keys=True)
        fh.write("\n")
