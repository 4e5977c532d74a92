"""Pointwise prediction from candidate sets and evaluation metrics.

Candidates come as one (N, K, y_dim) array, the K samples of each of N
inputs, as ``network.sample_outputs`` returns them, or to ``metrics_report``
as an iterator of such arrays over consecutive frames. Every metric is per
frame, so one pass folds a block of EVAL_BLOCK frames at a time. The pointwise
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

from collections.abc import Iterator

import numpy as np

from .errors import ContractError, DimensionError, EstimatorError, ParameterError
from .network import candidate_array
from .scoring import (LossSpec, data_term, mean_sem, pair_sq_norms, pair_term, pairwise_delta,
                      sorted_pairs)

# Frames per block of eval's candidates, drawn (``cli.cmd_eval``) and scored a block
# at a time. On the full-scale net at K = 32 (one BLAS thread, best of 12), 8, 16
# and 32 frames sampled 2,000 frames in 0.51, 0.48 and 0.51 s. A 16-frame block's
# workspace holds 3.0 MB, its 0.17 MB of candidates included (32 frames: 6.0 MB);
# all 2,000 frames' candidates took 21.5 MB.
EVAL_BLOCK = 16


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
    every candidate in the set. An exact tie in the computed sums goes to
    the lowest index. At one output under the L1 loss (``sorted_pairs``)
    the pick follows the candidates' order, not the sums' roundoff: it is
    the lowest index among the exact minimizers (``_median_pick``). With
    one candidate that candidate is returned.
    """
    outs = np.asarray(candidates, dtype=np.float64)
    if outs.ndim != 2 or outs.shape[0] < 1:
        raise ContractError(f"candidates must be a non-empty (K, y_dim) matrix, got {outs.shape}")
    if sorted_pairs(outs.shape[1], task_loss.beta):
        task_loss.weight_vector(1)  # DimensionError for weights of another length
        idx = int(_median_pick(outs[:, 0]))
    else:
        # argmin takes the first minimum: lowest index wins ties
        idx = int(np.argmin(pairwise_delta(task_loss, outs).sum(axis=1)))
    return idx, outs[idx].copy()


def _median_pick(g):
    """The MEU pick of one output's candidates under the L1 loss, for the
    (..., K) candidate values g: the lowest index whose value lies between
    the two middle order statistics, where sum_b |g_a - g_b| is least in
    exact arithmetic. It is the same for any g of the same order."""
    k, ordered = g.shape[-1], np.sort(g, axis=-1)
    inside = (g >= ordered[..., (k - 1) // 2, None]) & (g <= ordered[..., k // 2, None])
    return inside.argmax(axis=-1)


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


def _pearson_fold(outs, group_size, sums, counts):
    """Adds the correlations of each frame of the (B, K, y_dim) candidates,
    in frame order, to the (J, J) `sums` and its defined cells to `counts`."""
    (b, k, _), j = outs.shape, len(sums)
    dev = (outs - outs.mean(axis=1, keepdims=True)).reshape(b, k, j, group_size)
    e = np.sqrt((dev * dev).sum(axis=3)) if group_size > 1 else dev[..., 0]
    c = e - e.mean(axis=1, keepdims=True)
    ss = (c * c).sum(axis=1)
    differ = (outs != outs[:, :1]).any(axis=1).reshape(b, j, group_size).any(axis=2)
    live = differ & (ss > 0.0)
    mask = live[:, :, None] & live[:, None, :]
    denom = np.sqrt(ss[:, :, None] * ss[:, None, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(mask, (c.transpose(0, 2, 1) @ c) / np.where(denom > 0.0, denom, 1.0), 0.0)
    # one sum over the frame axis, outermost, so frame after frame in order
    np.add.reduce(np.concatenate([sums[None], np.clip(r, -1.0, 1.0) * mask]), axis=0, out=sums)
    counts += mask.sum(axis=0)


def _fold(outs, gts, meu, group_size=None):
    """One pass over the candidates `outs`, an array or an iterator of blocks
    in frame order, against the (N, y_dim) ground truths `gts`: (K, y_dim),
    the MEU picks (unless `meu` is False) and energy scores (if K > 1), and for
    a `group_size` (if K > 1) the correlation sums and counts. Picks and scores
    are bitwise ``meu_predict`` and ``energy_score_sample`` frame by frame: all
    take the pair kernel's distances, or at one output ``_median_pick``'s order,
    neither of which depends on a frame's block."""
    if not isinstance(outs, Iterator):
        a = candidate_array(outs)
        outs = (a[s:s + EVAL_BLOCK] for s in range(0, a.shape[0], EVAL_BLOCK))
    gts = np.asarray(gts, dtype=np.float64)
    n, s = gts.shape[0], 0
    for o in outs:
        b, k, y_dim = o.shape
        if not s:
            if gts.size != n * y_dim:
                raise DimensionError(f"ground truths of shape {gts.shape} for {y_dim} outputs")
            shape, y = o.shape[1:], gts.reshape(n, y_dim)
            j = joint_count(y_dim, group_size) if group_size and k > 1 else 0
            picks, scores, sums, counts = (np.empty((n, y_dim)), np.empty(n), np.zeros((j, j)),
                                           np.zeros((j, j), dtype=np.int64))
        w, sort = np.ones(y_dim), sorted_pairs(y_dim, 1.0)
        if o.shape[1:] != shape or s + b > n:
            raise ContractError(f"a candidate block of shape {o.shape} after {s} of {n} frames")
        if not sort:
            dist = np.sqrt(pair_sq_norms(o, w))
        if meu:
            # one output: by order; else an exact tie in the sums goes to the lowest index
            pick = _median_pick(o[..., 0]) if sort else dist.sum(axis=2).argmin(axis=1)
            picks[s:s + b] = o[np.arange(b), pick]
        if k > 1:
            pair = pair_term(o, w, 1.0) if sort else dist.sum(axis=(1, 2)) / (k * (k - 1))
            scores[s:s + b] = data_term(y[s:s + b], o, w, 1.0) - 0.5 * pair
        if j:
            _pearson_fold(o, group_size, sums, counts)
        s += b
    if s != n or not s:
        raise ContractError(f"{n} ground truths but {s} candidate sets")
    return shape, picks if meu else None, scores if k > 1 else None, (sums, counts) if j else None


def probloss(outs, gts):
    """Mean per-frame energy score (beta = 1, unit weights) of (N, K, y_dim)
    candidates against (N, y_dim) ground truths, with its sem."""
    if candidate_array(outs).shape[1] < 2:
        raise EstimatorError("energy score needs at least two candidates")
    return mean_sem(_fold(outs, gts, meu=False)[2])


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
    j = joint_count(outs.shape[2], group_size)
    if outs.shape[1] < 2:
        raise EstimatorError("correlations need at least two candidates")
    sums, counts = np.zeros((j, j)), np.zeros((j, j), dtype=np.int64)
    for s in range(0, outs.shape[0], EVAL_BLOCK):
        _pearson_fold(outs[s:s + EVAL_BLOCK], group_size, sums, counts)
    return _pearson_values(sums, counts)


def _pearson_values(sums, counts):
    defined = counts > 0
    values = np.full(sums.shape, np.nan)
    values[defined] = sums[defined] / counts[defined]
    # r(x, x) = 1 identically; write the identity rather than its roundoff.
    di = np.arange(sums.shape[0])
    values[di, di] = np.where(defined[di, di], 1.0, np.nan)
    return values, defined


def base_candidates(points, num_candidates, sigma, rng):
    """Candidates for a point predictor: each of the (N, y_dim) predictions
    plus Gaussian jitter, as an (N, K, y_dim) array from one
    ``standard_normal((N, K, y_dim))`` draw, bitwise also when drawn by blocks."""
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

    `outs` holds the (N, K, y_dim) candidates, as an array or an iterator
    of blocks of consecutive frames, in frame order. Pointwise predictions
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
    labels = {}
    for d in dict.fromkeys(map(float, distances)):  # equal distances are one entry
        seen = labels.setdefault(f"{d:g}", d)
        if seen != d:
            raise ContractError(f"FF distances {seen!r} and {d!r} share the label {d:g}")
    gts, meu = np.asarray(gts, dtype=np.float64), pointwise_preds is None
    (k, y_dim), picks, scores, pearson = _fold(outs, gts, meu, group_size)
    preds = picks if meu else np.asarray(pointwise_preds, dtype=np.float64)
    pairs = {"probloss": None if scores is None else mean_sem(scores),
             "mejee": mejee(preds, gts, group_size), "majee": majee(preds, gts, group_size)}
    doc = {name: None if pair is None else {"value": float(pair[0]), "sem": float(pair[1])}
           for name, pair in pairs.items()}
    doc["ff"] = {label: ff(preds, gts, group_size, d) for label, d in labels.items()}
    doc["pearson"] = None if pearson is None else [
        [float(v) if ok else None for v, ok in zip(*r)] for r in zip(*_pearson_values(*pearson))]
    doc["counts"] = {"frames": gts.shape[0], "candidates": k,
                     "joints": joint_count(y_dim, group_size)}
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
