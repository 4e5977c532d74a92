"""Checks of the program's artifacts, made apart from the program.

Nothing here imports ``disconet``. Each check recomputes what an artifact
reports from the artifact's own inputs with the benchmark's own code: a
parser of the documented checkpoint format, a forward pass, fresh noise
draws and an energy score. A reported estimate must agree with the
recomputed one within ``Z`` combined standard errors; the two use
independent draws, so they differ by sampling noise alone. Properties the
method must have (MeJEE <= MaJEE, monotone FF, unit Pearson diagonal,
a toy verdict that matches its table) are checked exactly.

Every check raises ``CheckError`` naming the artifact and the quantity.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs

# Agreement bound in combined standard errors. A false alarm at 5 sigma has
# probability below 1e-6 per comparison, and the benchmark's draws are
# fixed per seed, so a passing seed passes on every operation.
Z = 5.0


class CheckError(Exception):
    """An artifact disagrees with the benchmark's own computation."""


def require(cond, message):
    if not cond:
        raise CheckError(message)


def agree(what, value, sem, ref, ref_sem):
    tol = Z * math.hypot(sem, ref_sem)
    require(
        math.isfinite(value) and abs(value - ref) <= tol,
        f"{what}: reported {value!r} vs recomputed {ref!r} (tolerance {tol:.3g})",
    )


def mean_sem(values):
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def read_json(path):
    with open(path, encoding="utf8") as fh:
        # parse_constant rejects the bare NaN/Infinity tokens JSON does not allow.
        return json.load(fh, parse_constant=_reject_constant(path))


def _reject_constant(path):
    def reject(token):
        raise CheckError(f"{path}: non-standard JSON token {token}")

    return reject


def read_checkpoint(path):
    """Parse the text checkpoint: a JSON header line, then one float per line.

    Returns ``(net, layers)`` with ``layers`` a list of (W, b) arrays in
    forward order.
    """
    lines = Path(path).read_text(encoding="utf8").splitlines()
    require(lines, f"{path}: empty checkpoint")
    header = json.loads(lines[0])
    require(
        header.get("format") == "disconet-params" and header.get("version") == 1,
        f"{path}: unexpected header {lines[0]!r}",
    )
    net = header["net"]
    flat = np.array([float(s) for s in lines[1:] if s.strip()])
    require(np.all(np.isfinite(flat)), f"{path}: non-finite parameter values")
    layers, pos = [], 0
    for fi, fo in inputs.layer_dims(net):
        w = flat[pos : pos + fi * fo].reshape(fi, fo)
        pos += fi * fo
        layers.append((w, flat[pos : pos + fo]))
        pos += fo
    require(pos == flat.size, f"{path}: {flat.size} values, architecture needs {pos}")
    return net, layers


def sample(net, layers, x, k, rng, chunk=256):
    """K generator outputs per row of x under fresh uniform noise; (N, K, y_dim)."""
    if x.shape[0] > chunk:
        return np.concatenate([sample(net, layers, x[i : i + chunk], k, rng, chunk)
                               for i in range(0, x.shape[0], chunk)])
    n = x.shape[0]
    h = np.repeat(x, k, axis=0)
    n_enc = len(net["encoder_widths"])
    for w, b in layers[:n_enc]:
        h = np.maximum(h @ w + b, 0.0)
    if net["noise_enabled"]:
        h = np.concatenate([h, rng.uniform(-1.0, 1.0, size=(n * k, net["z_dim"]))], axis=1)
    for w, b in layers[n_enc:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = layers[-1]
    return (h @ w + b).reshape(n, k, -1)


def pair_distances(cands):
    """Euclidean distances between candidates of each frame; (N, K, K)."""
    sq = (cands * cands).sum(axis=2)
    gram = cands @ cands.transpose(0, 2, 1)
    d2 = sq[:, :, None] + sq[:, None, :] - 2.0 * gram
    return np.sqrt(np.maximum(d2, 0.0))


def energy_scores(cands, y):
    """Per-frame sampled energy score, beta = 1 and unit weights."""
    k = cands.shape[1]
    data = np.sqrt(((cands - y[:, None, :]) ** 2).sum(axis=2)).mean(axis=1)
    return data - pair_distances(cands).sum(axis=(1, 2)) / (2.0 * k * (k - 1))


def probloss_from_checkpoint(checkpoint, x, y, k, rng):
    """(mean, sem) of the energy score of the checkpoint's sampler on (x, y)."""
    net, layers = read_checkpoint(checkpoint)
    return mean_sem(energy_scores(sample(net, layers, x, k, rng), y))


def check_train(out_dir, epochs, reference):
    """Artifacts of ``disconet train``; ``reference`` is (mean, sem) recomputed
    from ``checkpoint.txt`` on held-out data. Returns val_probloss."""
    out = Path(out_dir)
    summary = read_json(out / "summary.json")
    require(summary["epochs"] == epochs, f"summary.json: {summary['epochs']} epochs, expected {epochs}")
    with open(out / "history.csv", encoding="utf8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    require(len(rows) == epochs, f"history.csv: {len(rows)} rows, expected {epochs}")
    for row in rows:
        for key in ("train_objective", "val_objective"):
            require(math.isfinite(float(row[key])), f"history.csv: epoch {row['epoch']} {key} not finite")
    value, sem = summary["val_probloss"], summary["val_probloss_sem"]
    require(value is not None and sem is not None and sem > 0.0, "summary.json: val_probloss missing")
    agree("summary.json val_probloss", value, sem, *reference)
    return value


class EvalReference:
    """The benchmark's own evaluation of a checkpoint on known frames."""

    def __init__(self, checkpoint, x, y, k, group_size, distances, rng):
        net, layers = read_checkpoint(checkpoint)
        cands = sample(net, layers, x, k, rng)
        self.frames, self.k = x.shape[0], k
        self.joints = y.shape[1] // group_size
        self.probloss = mean_sem(energy_scores(cands, y))
        # MEU: the candidate with the least summed distance to the others;
        # argmin keeps the lowest index on ties.
        best = pair_distances(cands).sum(axis=2).argmin(axis=1)
        preds = cands[np.arange(self.frames), best]
        d = (preds - y).reshape(self.frames, self.joints, group_size)
        err = np.sqrt((d * d).sum(axis=2))
        worst = err.max(axis=1)
        self.mejee = mean_sem(err.mean(axis=1))
        self.majee = mean_sem(worst)
        self.ff = {float(dist): float((worst <= dist).mean()) for dist in distances}


def check_eval(out_dir, ref):
    """Artifacts of ``disconet eval`` against an EvalReference. Returns probloss."""
    doc = read_json(Path(out_dir) / "metrics.json")
    counts = doc["counts"]
    require(
        (counts["frames"], counts["candidates"], counts["joints"]) == (ref.frames, ref.k, ref.joints),
        f"metrics.json: counts {counts}",
    )
    for name in ("probloss", "mejee", "majee"):
        agree(f"metrics.json {name}", doc[name]["value"], doc[name]["sem"], *getattr(ref, name))
    require(doc["mejee"]["value"] <= doc["majee"]["value"], "metrics.json: MeJEE > MaJEE")
    ff = sorted((float(k), v) for k, v in doc["ff"].items())
    require([d for d, _ in ff] == sorted(ref.ff), f"metrics.json: FF distances {doc['ff']}")
    values = [v for _, v in ff]
    require(all(0.0 <= v <= 1.0 for v in values), "metrics.json: FF outside [0, 1]")
    require(values == sorted(values), "metrics.json: FF decreases with distance")
    for dist, v in ff:
        p = ref.ff[dist]
        se = math.sqrt((v * (1 - v) + p * (1 - p)) / ref.frames)
        require(abs(v - p) <= Z * se + 1.0 / ref.frames, f"metrics.json: FF at {dist:g} is {v}, recomputed {p}")
    pearson = doc["pearson"]
    require(len(pearson) == ref.joints, "metrics.json: Pearson matrix size")
    require(all(pearson[i][i] == 1.0 for i in range(ref.joints)), "metrics.json: Pearson diagonal is not 1")
    return doc["probloss"]["value"]


# The program's toy task: a two-component diagonal Gaussian mixture in 2-D,
# fitted by one diagonal Gaussian under two axis-weighted losses at gamma 1/2.
TOY_MEANS = np.array([[-1.4, -1.4], [1.4, 1.4]])
TOY_STDDEVS = np.array([[0.5, 1.5], [0.5, 1.5]])
TOY_LOSSES = {"dim1": np.array([10.0, 0.1]), "dim2": np.array([0.1, 10.0])}
TOY_GAMMA = 0.5


class ToyReference:
    """The benchmark's own evaluation of fitted Gaussians on fresh mixture draws."""

    def __init__(self, rng, n=4000, m=24):
        which = rng.integers(0, 2, size=n)
        self.test = TOY_MEANS[which] + TOY_STDDEVS[which] * rng.standard_normal((n, 2))
        self.eps = rng.standard_normal((n, m, 2))
        self._memo = {}

    def cell(self, fit, loss_name):
        """(mean, sem) of the gamma = 1/2 dissimilarity of `fit` under one loss."""
        key = (tuple(sorted(fit.items())), loss_name)
        if key not in self._memo:
            w = TOY_LOSSES[loss_name]
            q = np.array([fit["mu1"], fit["mu2"]]) + np.array([fit["sigma1"], fit["sigma2"]]) * self.eps
            d = self.test[:, None, :] - q
            pq = np.sqrt((d * d) @ w).mean(axis=1)
            m = q.shape[1]
            dd = q[:, :, None, :] - q[:, None, :, :]
            qq = np.sqrt((dd * dd) @ w).sum(axis=(1, 2)) / (m * (m - 1))
            self._memo[key] = mean_sem(pq - TOY_GAMMA * qq)
        return self._memo[key]


def check_toy(out_dir, config, ref, rc):
    """Artifacts of ``disconet toy`` and its exit code. Returns the mean of
    the table's diagonal.

    The verdict must match the table: exit 0 and ``diagonal_dominance``
    true exactly when every column is won by the model trained under that
    column's loss, exit 1 otherwise.
    """
    out = Path(out_dir)
    toy = config["toy"]
    doc = read_json(out / "fitted_params.json")
    names = doc["losses"]
    require(sorted(names) == sorted(TOY_LOSSES), f"fitted_params.json: losses {names}")
    with open(out / "cross_table.csv", encoding="utf8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    table = {r["train_loss"]: {t: float(r[f"task_{t}"]) for t in names} for r in rows}
    require(sorted(table) == sorted(names), f"cross_table.csv: rows {sorted(table)}")
    dominant = all(table[task][task] < table[train][task] for task in names for train in names if train != task)
    require(
        doc["diagonal_dominance"] is dominant and rc == (0 if dominant else 1),
        f"toy: exit {rc} and diagonal_dominance {doc['diagonal_dominance']} but the table is "
        + ("" if dominant else "not ") + "diagonally dominant",
    )
    on_grid = {"mu1": toy["mu_values"], "mu2": toy["mu_values"],
               "sigma1": toy["sigma_values"], "sigma2": toy["sigma_values"]}
    per_seed = doc["per_seed"]
    require([e["seed"] for e in per_seed] == toy["seeds"], "fitted_params.json: seeds")
    for entry in per_seed:
        for name, fit in entry["fits"].items():
            for key, values in on_grid.items():
                require(fit[key] in values, f"fitted_params.json: seed {entry['seed']} {name} {key}={fit[key]} is off the grid")
    for train in names:
        for task in names:
            cells = [e["table"][train][task] for e in per_seed]
            mine = [ref.cell(e["fits"][train], task) for e in per_seed]
            s = len(cells)
            value = table[train][task]
            require(
                math.isclose(value, sum(c[0] for c in cells) / s, rel_tol=1e-12),
                f"cross_table.csv: {train}/{task} is not the mean of the per-seed cells",
            )
            agree(
                f"cross_table.csv {train}/{task}",
                value,
                math.sqrt(sum(c[1] ** 2 for c in cells)) / s,
                sum(c[0] for c in mine) / s,
                math.sqrt(sum(c[1] ** 2 for c in mine)) / s,
            )
    return sum(table[n][n] for n in names) / len(names)
