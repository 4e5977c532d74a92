"""Pointwise prediction from candidate sets and evaluation metrics.

Candidates come as one (N, K, y_dim) array, the K samples of each of N
inputs, as ``network.sample_outputs`` returns them. The pointwise
prediction is the candidate with maximum expected utility: the one
minimizing its summed task loss to all candidates of the same input.
Pointwise metrics follow the hand-pose convention: output coordinates are
grouped into joints of ``group_size`` consecutive coordinates, errors are
Euclidean per joint, and a frame is one evaluated example. The
probabilistic metric is the per-frame sampled energy score (unit weights,
beta = 1) across candidates, whose pair term sums the same K x K candidate
distances that MEU row-sums. ``metrics_report`` returns the report as the
plain document metrics.json holds, and ``report_rows`` flattens that
document into the rows of metrics.csv.
"""

import numpy as np

from .errors import ContractError, DimensionError, EstimatorError, ParameterError
from .network import candidate_array
from .scoring import (LossSpec, data_term, mean_sem, pair_sq_norms, pair_term, pairwise_delta,
                      sorted_pairs)

# Frames per block of the MEU/ProbLoss pass and of the correlations: small, to bound peak memory.
DATA_BLOCK = 16
PEARSON_BLOCK = 32


def joint_count(y_dim, group_size):
    """Joints in `y_dim` outputs when each joint spans `group_size`
    consecutive coordinates."""
    if group_size < 1:
        raise ContractError("group_size must be >= 1")
    if y_dim % group_size != 0:
        raise DimensionError(f"y_dim {y_dim} not divisible by group size {group_size}")
    return int(y_dim // group_size)


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


def _frame_errors(preds, gts, group_size):
    preds = np.asarray(preds, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    if preds.shape != gts.shape or preds.ndim != 2:
        raise DimensionError(f"preds {preds.shape} and gts {gts.shape} must be equal matrices")
    if preds.shape[0] == 0:
        raise ContractError("no frames to evaluate")
    d = (preds - gts).reshape(preds.shape[0], joint_count(preds.shape[1], group_size), group_size)
    return np.sqrt((d * d).sum(axis=2))


def mejee(preds, gts, group_size):
    """Mean joint error: per-frame mean over joints, averaged over frames.

    Returns ``(value, sem)`` with the standard error over frames.
    """
    return mean_sem(_frame_errors(preds, gts, group_size).mean(axis=1))


def majee(preds, gts, group_size):
    """Max joint error: per-frame max over joints, averaged over frames."""
    return mean_sem(_frame_errors(preds, gts, group_size).max(axis=1))


def ff(preds, gts, group_size, distance):
    """Fraction of frames whose worst joint error is within `distance`."""
    worst = _frame_errors(preds, gts, group_size).max(axis=1)
    return float((worst <= distance).mean())


def _frame_scores(outs, gts, meu):
    """MEU indices (None unless `meu`) and energy scores (None for K = 1) of
    (N, K, y_dim) candidates, bitwise ``meu_predict`` and ``energy_score_sample``
    frame by frame: all three take the pair kernel's distances (``pair_sq_norms``),
    which do not depend on the frames blocked with a frame."""
    n, k, y_dim = outs.shape
    gts = np.asarray(gts, dtype=np.float64)
    if gts.shape[0] != n:
        raise ContractError(f"{gts.shape[0]} ground truths but {n} candidate sets")
    if gts.size != n * y_dim:
        raise DimensionError(f"ground truths of shape {gts.shape} for candidate dim {y_dim}")
    w, sort = np.ones(y_dim), sorted_pairs(y_dim, 1.0)
    rows, totals = np.empty((n, k)), np.empty(n)
    if meu or not sort:
        held = np.empty((min(n, DATA_BLOCK), k, k))
        for s in range(0, n, DATA_BLOCK):
            dist = np.sqrt(pair_sq_norms(outs[s:s + DATA_BLOCK], w, held[:n - s]), out=held[:n - s])
            dist.sum(axis=2, out=rows[s:s + DATA_BLOCK])
            dist.sum(axis=(1, 2), out=totals[s:s + DATA_BLOCK])
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


def pearson_matrix(outs, group_size):
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
    j = joint_count(y_dim, group_size)
    if k < 2:
        raise EstimatorError("correlations need at least two candidates")
    sums, counts = np.zeros((j, j)), np.zeros((j, j), dtype=np.int64)
    for start in range(0, outs.shape[0], PEARSON_BLOCK):
        o = outs[start:start + PEARSON_BLOCK]
        dev = (o - o.mean(axis=1, keepdims=True)).reshape(o.shape[0], k, j, group_size)
        e = np.sqrt((dev * dev).sum(axis=3)) if group_size > 1 else dev[..., 0]
        c = e - e.mean(axis=1, keepdims=True)
        ss = (c * c).sum(axis=1)
        differ = (o != o[:, :1]).any(axis=1).reshape(o.shape[0], j, group_size).any(axis=2)
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


def metrics_report(outs, gts, group_size, distances, pointwise_preds=None):
    """The evaluation report for one dataset, as the document metrics.json
    holds (less the config hash).

    `outs` holds the (N, K, y_dim) candidates. Pointwise predictions
    default to maximum-expected-utility selection per input under the
    default loss; pass `pointwise_preds` to evaluate externally chosen
    predictions (e.g. the zero-noise forward pass) instead. ``probloss``,
    ``mejee`` and ``majee`` are ``{"value", "sem"}`` pairs, ``ff`` maps each
    distance's ``:g`` label to its fraction, ``pearson`` holds the
    correlation rows with None for undefined cells, and ``counts`` the
    frames, candidates and joints. With a single candidate per input
    ``probloss`` and ``pearson`` are None. Two distinct FF distances that
    print alike under ``:g`` are a ContractError, since the report keys FF
    values by that label.
    """
    outs = candidate_array(outs)
    gts = np.asarray(gts, dtype=np.float64)
    k = outs.shape[1]
    labels = {}
    for d in dict.fromkeys(map(float, distances)):  # equal distances are one entry
        seen = labels.setdefault(f"{d:g}", d)
        if seen != d:
            raise ContractError(f"FF distances {seen!r} and {d!r} share the label {d:g}")
    idx, scores = _frame_scores(outs, gts, meu=pointwise_preds is None)
    if pointwise_preds is None:
        preds = outs[np.arange(outs.shape[0]), idx]
    else:
        preds = np.asarray(pointwise_preds, dtype=np.float64)
    pairs = {"probloss": None if scores is None else mean_sem(scores),
             "mejee": mejee(preds, gts, group_size), "majee": majee(preds, gts, group_size)}
    doc = {name: None if pair is None else {"value": float(pair[0]), "sem": float(pair[1])}
           for name, pair in pairs.items()}
    doc["ff"] = {label: ff(preds, gts, group_size, d) for label, d in labels.items()}
    doc["pearson"] = None
    if k >= 2:
        values, defined = pearson_matrix(outs, group_size)
        doc["pearson"] = [[float(v) if ok else None for v, ok in zip(*row)]
                          for row in zip(values, defined)]
    doc["counts"] = {"frames": gts.shape[0], "candidates": k,
                     "joints": joint_count(outs.shape[2], group_size)}
    return doc


def report_rows(doc):
    """The (name, value, sem) string rows of metrics.csv, flattened from a
    ``metrics_report`` document: the three pairs, FF by numeric distance,
    Pearson row-major, then counts by key, with blanks where it holds None."""
    rows = [(name, "", "") if doc[name] is None
            else (name, repr(doc[name]["value"]), repr(doc[name]["sem"]))
            for name in ("probloss", "mejee", "majee")]
    rows += [(f"ff_{label}", repr(doc["ff"][label]), "") for label in sorted(doc["ff"], key=float)]
    for i, row in enumerate(doc["pearson"] or ()):
        rows += [(f"pearson_{i}_{j}", "" if v is None else repr(v), "") for j, v in enumerate(row)]
    rows += [(f"count_{key}", str(doc["counts"][key]), "") for key in sorted(doc["counts"])]
    return rows
