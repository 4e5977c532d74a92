"""Pointwise prediction from candidate sets and evaluation metrics.

Candidates come as one (N, K, y_dim) array, the K samples of each of N
inputs, as ``network.sample_outputs`` returns them. The pointwise
prediction is the candidate with maximum expected utility: the one
minimizing its summed task loss to all candidates of the same input.
Pointwise metrics follow the hand-pose convention: output coordinates are
grouped into joints, errors are Euclidean per joint, and a frame is one
evaluated example. The probabilistic metric is the per-frame sampled
energy score (unit weights, beta = 1) across candidates, whose pair term
sums the same K x K candidate distances that MEU row-sums.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, EstimatorError, ParameterError
from .network import candidate_array
from .scoring import LossSpec, beta_norm, data_term, mean_sem, pair_term, pairwise_delta, sorted_pairs

# Frames per block of the data term and of the correlations: small, to bound peak memory.
DATA_BLOCK = 16
PEARSON_BLOCK = 32


@dataclass(frozen=True)
class JointLayout:
    """Joint names plus how many consecutive coordinates each joint spans."""

    names: tuple
    group_size: int = 1

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        if not self.names:
            raise ContractError("layout needs at least one joint")
        if self.group_size < 1:
            raise ContractError("group_size must be >= 1")

    @property
    def num_joints(self):
        return len(self.names)

    @property
    def y_dim(self):
        return self.num_joints * self.group_size

    @classmethod
    def scalar(cls, y_dim):
        """Degenerate layout: every output coordinate is its own joint."""
        return cls(tuple(f"y{i}" for i in range(y_dim)), 1)

    @classmethod
    def grouped(cls, y_dim, group_size, names=None):
        if group_size < 1:
            raise ContractError("group_size must be >= 1")
        if y_dim % group_size != 0:
            raise DimensionError(f"y_dim {y_dim} not divisible by group size {group_size}")
        j = y_dim // group_size
        if names is None:
            names = tuple(f"j{i}" for i in range(j))
        layout = cls(tuple(names), group_size)
        if layout.num_joints != j:
            raise DimensionError(f"{len(names)} names for {j} joints")
        return layout


def meu_predict(candidates, task_loss=LossSpec()):
    """Candidate with maximum expected utility under the task loss.

    `candidates` is one input's (K, y_dim) matrix. Returns ``(index,
    output)`` for the candidate minimizing the sum of its task losses to
    every candidate in the set; ties keep the lowest index. With one
    candidate that candidate is returned.
    """
    outs = np.asarray(candidates, dtype=np.float64)
    if outs.ndim != 2 or outs.shape[0] < 1:
        raise ContractError(f"candidates must be a non-empty (K, y_dim) matrix, got {outs.shape}")
    totals = pairwise_delta(task_loss, outs).sum(axis=1)
    idx = int(np.argmin(totals))  # argmin takes the first minimum: lowest index wins ties
    return idx, outs[idx].copy()


def _frame_errors(preds, gts, layout):
    preds = np.asarray(preds, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    if preds.shape != gts.shape or preds.ndim != 2:
        raise DimensionError(f"preds {preds.shape} and gts {gts.shape} must be equal matrices")
    if preds.shape[0] == 0:
        raise ContractError("no frames to evaluate")
    if preds.shape[1] != layout.y_dim:
        raise DimensionError(f"outputs have dim {preds.shape[1]}, layout expects {layout.y_dim}")
    d = (preds - gts).reshape(preds.shape[0], layout.num_joints, layout.group_size)
    return np.sqrt((d * d).sum(axis=2))


def mejee(preds, gts, layout):
    """Mean joint error: per-frame mean over joints, averaged over frames.

    Returns ``(value, sem)`` with the standard error over frames.
    """
    return mean_sem(_frame_errors(preds, gts, layout).mean(axis=1))


def majee(preds, gts, layout):
    """Max joint error: per-frame max over joints, averaged over frames."""
    return mean_sem(_frame_errors(preds, gts, layout).max(axis=1))


def ff(preds, gts, layout, distance):
    """Fraction of frames whose worst joint error is within `distance`."""
    worst = _frame_errors(preds, gts, layout).max(axis=1)
    return float((worst <= distance).mean())


def _frame_scores(outs, gts, meu):
    """MEU indices (None unless `meu`) and energy scores (None for K = 1) of
    (N, K, y_dim) candidates, bitwise ``meu_predict`` and ``energy_score_sample``
    frame by frame: one ``pairwise_delta`` broadcast per frame, not mirrored from
    its upper triangle, as BLAS may round a row's last K mod 4 entries apart."""
    n, k, y_dim = outs.shape
    gts = np.asarray(gts, dtype=np.float64)
    if gts.shape[0] != n:
        raise ContractError(f"{gts.shape[0]} ground truths but {n} candidate sets")
    if gts.size != n * y_dim:
        raise DimensionError(f"ground truths of shape {gts.shape} for candidate dim {y_dim}")
    w, sort = np.ones(y_dim), sorted_pairs(y_dim, 1.0)
    rows, totals = np.empty((n, k)), np.empty(n)
    if meu or not sort:
        diff = np.empty((k, k, y_dim))
        for i, g in enumerate(outs):
            dist = beta_norm(np.subtract(g[:, None, :], g[None, :, :], out=diff), w, 1.0)
            rows[i], totals[i] = dist.sum(axis=1), dist.sum(axis=(0, 1))
    idx = rows.argmin(axis=1) if meu else None  # argmin keeps the lowest index on ties
    if k < 2:
        return idx, None
    gts = gts.reshape(n, y_dim)
    data = np.concatenate([data_term(gts[s:s + DATA_BLOCK], outs[s:s + DATA_BLOCK], w, 1.0)
                           for s in range(0, n, DATA_BLOCK)])
    pair = pair_term(outs, w, 1.0) if sort else totals / (k * (k - 1))
    return idx, data - 0.5 * pair


def probloss(outs, gts):
    """Mean per-frame energy score (beta = 1, unit weights) of (N, K, y_dim)
    candidates against (N, y_dim) ground truths, with its sem."""
    outs = candidate_array(outs)
    if outs.shape[1] < 2:
        raise EstimatorError("energy score needs at least two candidates")
    return mean_sem(_frame_scores(outs, gts, meu=False)[1])


def pearson_matrix(outs, layout):
    """Per-joint deviation correlations across candidates, averaged over inputs.

    `outs` holds the (N, K, y_dim) candidates. For each input the
    per-candidate deviation from the candidate mean is reduced per joint
    (Euclidean magnitude for multi-coordinate joints, signed value for
    singleton joints) and correlated across the K candidates. A joint is
    live for an input when two of its candidates differ in one of its
    coordinates, compared exactly (the mean of tied values can round off
    them, and that offset would read as variance), and its reduced
    deviations still spread (at K = 2 a grouped joint's two magnitudes are
    often exactly equal). Other joints are flagged undefined for that input
    and excluded from the average rather than propagating NaN.

    Returns
    -------
    (values, defined) : (ndarray, ndarray)
        Both (J, J). ``values`` holds averaged correlations, exactly 1 on
        the defined diagonal, and NaN filler where ``defined`` is False.
    """
    outs = candidate_array(outs)
    _, k, y_dim = outs.shape
    if y_dim != layout.y_dim:
        raise DimensionError(f"outputs have dim {y_dim}, layout expects {layout.y_dim}")
    if k < 2:
        raise EstimatorError("correlations need at least two candidates")
    j, group = layout.num_joints, layout.group_size
    sums, counts = np.zeros((j, j)), np.zeros((j, j), dtype=np.int64)
    for start in range(0, outs.shape[0], PEARSON_BLOCK):
        o = outs[start:start + PEARSON_BLOCK]
        dev = (o - o.mean(axis=1, keepdims=True)).reshape(o.shape[0], k, j, group)
        e = np.sqrt((dev * dev).sum(axis=3)) if group > 1 else dev[..., 0]
        c = e - e.mean(axis=1, keepdims=True)
        ss = (c * c).sum(axis=1)
        differ = (o != o[:, :1]).any(axis=1).reshape(o.shape[0], j, group).any(axis=2)
        live = differ & (ss > 0.0)
        mask = live[:, :, None] & live[:, None, :]
        denom = np.sqrt(ss[:, :, None] * ss[:, None, :])
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(mask, (c.transpose(0, 2, 1) @ c) / np.where(denom > 0.0, denom, 1.0), 0.0)
        for r_f, mask_f in zip(np.clip(r, -1.0, 1.0) * mask, mask):  # one frame at a time, in order
            sums += r_f
            counts += mask_f
    defined = counts > 0
    values = np.full((j, j), np.nan)
    values[defined] = sums[defined] / counts[defined]
    # r(x, x) = 1 identically; write the identity rather than its roundoff.
    di = np.arange(j)
    values[di, di] = np.where(defined[di, di], 1.0, np.nan)
    return values, defined


def base_candidates(points, num_candidates, sigma, rng):
    """Candidates for a point predictor: each of the (N, y_dim) predictions
    plus Gaussian jitter, as an (N, K, y_dim) array from one
    ``standard_normal((N, K, y_dim))`` draw."""
    if sigma <= 0.0:
        raise ParameterError("sigma must be positive")
    if num_candidates < 1:
        raise ContractError("num_candidates must be >= 1")
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2:
        raise DimensionError(f"points must be an (N, y_dim) matrix, got shape {p.shape}")
    n, y_dim = p.shape
    return p[:, None, :] + sigma * rng.standard_normal((n, num_candidates, y_dim))


@dataclass
class MetricsReport:
    """Evaluation summary: probabilistic and pointwise metrics plus counts.

    ``probloss`` and ``pearson`` are None when only one candidate per
    input was available (the estimators need K >= 2).
    """

    probloss: tuple
    mejee: tuple
    majee: tuple
    ff: dict
    pearson: tuple
    counts: dict

    def to_json_dict(self):
        doc = {
            "probloss": _pair_dict(self.probloss),
            "mejee": _pair_dict(self.mejee),
            "majee": _pair_dict(self.majee),
            "ff": {f"{d:g}": float(v) for d, v in self.ff.items()},
            "pearson": None,
            "counts": {k: int(v) for k, v in self.counts.items()},
        }
        if self.pearson is not None:
            values, defined = self.pearson
            doc["pearson"] = [
                [float(values[i, j]) if defined[i, j] else None for j in range(values.shape[1])]
                for i in range(values.shape[0])
            ]
        return doc

    def to_csv_rows(self):
        """Flat (name, value, sem) string triples; blanks for undefined."""
        rows = []
        for name, pair in (("probloss", self.probloss), ("mejee", self.mejee), ("majee", self.majee)):
            if pair is None:
                rows.append((name, "", ""))
            else:
                rows.append((name, repr(float(pair[0])), repr(float(pair[1]))))
        for d in sorted(self.ff):
            rows.append((f"ff_{d:g}", repr(float(self.ff[d])), ""))
        if self.pearson is not None:
            values, defined = self.pearson
            for i in range(values.shape[0]):
                for j in range(values.shape[1]):
                    val = repr(float(values[i, j])) if defined[i, j] else ""
                    rows.append((f"pearson_{i}_{j}", val, ""))
        for key in sorted(self.counts):
            rows.append((f"count_{key}", str(int(self.counts[key])), ""))
        return rows


def _pair_dict(pair):
    if pair is None:
        return None
    return {"value": float(pair[0]), "sem": float(pair[1])}


def metrics_report(outs, gts, layout, distances, pointwise_preds=None):
    """Assemble the full evaluation report for one dataset.

    `outs` holds the (N, K, y_dim) candidates. Pointwise predictions
    default to maximum-expected-utility selection per input under the
    default loss; pass `pointwise_preds` to evaluate externally chosen
    predictions (e.g. the zero-noise forward pass) instead. With a single
    candidate per input the probabilistic entries are None. Two distinct FF
    distances that print alike under ``:g`` are a ContractError, since the
    report keys FF values by that label.
    """
    outs = candidate_array(outs)
    gts = np.asarray(gts, dtype=np.float64)
    k = outs.shape[1]
    labels = {}
    for d in map(float, distances):
        seen = labels.setdefault(f"{d:g}", d)
        if seen != d:
            raise ContractError(f"FF distances {seen!r} and {d!r} share the label {d:g}")
    idx, scores = _frame_scores(outs, gts, meu=pointwise_preds is None)
    if pointwise_preds is None:
        preds = outs[np.arange(outs.shape[0]), idx]
    else:
        preds = np.asarray(pointwise_preds, dtype=np.float64)
    report = MetricsReport(
        probloss=None if scores is None else mean_sem(scores),
        mejee=mejee(preds, gts, layout),
        majee=majee(preds, gts, layout),
        ff={float(d): ff(preds, gts, layout, float(d)) for d in distances},
        pearson=pearson_matrix(outs, layout) if k >= 2 else None,
        counts={
            "frames": gts.shape[0],
            "candidates": k,
            "joints": layout.num_joints,
        },
    )
    return report
