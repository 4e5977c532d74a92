"""The sampled training objective and its differentiable graph form.

The scalar objective over a minibatch is

    DIVhat(P, Q) - gamma * DIVhat(Q, Q)

where DIVhat(P, Q) is the mean loss between each ground truth and the K
candidates sampled for its input, and DIVhat(Q, Q) is the mean loss over
ordered pairs of distinct candidates for the same input. Both are unbiased
in the candidate draws. gamma = 1/2 makes the per-example objective the
sampled energy score, hence (the negative of) a strictly proper scoring
rule; gamma = 0 drops the diversity term and trains a plain regressor.

``objective_terms`` computes the objective of one minibatch together with
its gradient, with the noise draws held fixed. It only composes: the
network walks forward and back, and the loss module gives the two terms and
their slopes. ``grad_check`` compares such a gradient with central
differences. The graph builder ``disco_objective_node`` states the same
arithmetic through the reverse-mode graph; it is kept as the independent
reference that tests compare the gradient against.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, EstimatorError, NumericError, ParameterError
from .network import NetworkParams, bind_params, candidate_array, forward_rows, layer_walk, walk_back
from .scoring import LossSpec, data_grad, data_term, pair_grad, pair_term

GRAD_CHECK_STEP = 1e-6
GRAD_CHECK_TOLERANCE = 1e-4
GRAD_CHECK_FLOOR = 1e-8  # the least gradient magnitude a relative error is taken against


@dataclass(frozen=True)
class ObjectiveConfig:
    """Diversity weight gamma, candidate count per input, and the loss."""

    gamma: float = 0.5
    num_candidates: int = 16
    loss: LossSpec = LossSpec()

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.num_candidates < 1:
            raise ParameterError("num_candidates must be >= 1")
        if self.gamma > 0.0 and self.num_candidates < 2:
            raise EstimatorError("gamma > 0 needs at least two candidates per input")


def _batch_arrays(batch):
    """An (X, Y) pair as float64 matrices with equal, non-zero row counts."""
    if not (isinstance(batch, tuple) and len(batch) == 2):
        raise ContractError("batch must be an (X, Y) pair of matrices")
    x, y = (np.asarray(a, dtype=np.float64) for a in batch)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ContractError(f"batch needs equal-row X and Y matrices, got {x.shape}, {y.shape}")
    if x.shape[0] == 0:
        raise ContractError("empty batch")
    return x, y


def div_pq_hat(y, outs, loss=LossSpec()):
    """Mean loss between ground truths and their sampled candidates.

    Unbiased estimate of E Delta(Y, G) for Y from the data and G from the
    model: `y` is (N, y_dim), `outs` the (N, K, y_dim) candidates, and the
    estimate is the mean over examples of the per-example mean over
    candidates.
    """
    outs = candidate_array(outs)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != outs.shape[0]:
        raise ContractError(f"ground truths {y.shape} for {outs.shape[0]} candidate sets")
    y_dim = outs.shape[2]
    if y.shape[1] != y_dim:
        raise DimensionError(f"ground truths have dim {y.shape[1]}, candidates {y_dim}")
    w = loss.weight_vector(y_dim)
    return float(np.mean(data_term(y, outs, w, loss.beta)))


def div_qq_hat(outs, loss=LossSpec()):
    """Mean loss over ordered pairs of distinct candidates per input.

    Unbiased estimate of E Delta(G, G') for two independent model samples
    at the same input, over (N, K, y_dim) candidates; needs K >= 2.
    """
    outs = candidate_array(outs)
    _, k, y_dim = outs.shape
    if k < 2:
        raise EstimatorError("pair diversity needs at least two candidates")
    w = loss.weight_vector(y_dim)
    return float(np.mean(pair_term(outs, w, loss.beta)))


def disco_objective(y, outs, config):
    """The sampled objective DIVhat(P,Q) - gamma * DIVhat(Q,Q) of (N, y_dim)
    ground truths and their (N, K, y_dim) candidates."""
    pq = div_pq_hat(y, outs, config.loss)
    if config.gamma == 0.0:
        return pq
    return pq - config.gamma * div_qq_hat(outs, config.loss)


def objective_terms(params, x, y, z, cfg, work=None):
    """The sampled objective of one minibatch, its two terms and its gradient.

    Parameters
    ----------
    params : NetworkParams
    x, y : arrays of shape (n, x_dim) and (n, y_dim)
    z : array of shape (n, K, z_dim), or None
        Pre-drawn noise (``network.draw_noise``), held fixed. Required when
        the network has its noise channel enabled; a noise-free net ignores
        it and walks one candidate per input, repeated K times.
    cfg : ObjectiveConfig
    work : dict, optional
        The walks' arrays (``network.layer_walk``), gradient included.

    Returns
    -------
    (pq, qq, value, grad)
        DIVhat(P,Q); DIVhat(Q,Q), or nan when K = 1; the objective
        ``pq - gamma * qq`` (``pq`` when gamma = 0); and the gradient of the
        objective in ``NetworkParams.flat`` order.

    One ``network.layer_walk`` gives the candidates, ``scoring.data_grad``
    and ``scoring.pair_grad`` the per-example terms and their slopes, and
    ``network.walk_back`` the gradient. pq and qq are means of the
    per-example terms, as in ``div_pq_hat`` and ``div_qq_hat``, so on the
    same candidates they equal those bitwise. The caller checks the value
    and the gradient for finiteness.
    """
    net = params.config
    x, y = _batch_arrays((x, y))
    if y.shape[1] != net.y_dim:
        raise DimensionError(f"y has dim {y.shape[1]}, the net outputs {net.y_dim}")
    n, k = x.shape[0], cfg.num_candidates
    walked = k if net.noise_enabled else 1
    inputs = []
    for h, out in layer_walk(params, x, z, walked, work):
        inputs.append(h)
    g = out.reshape(n, walked, net.y_dim)
    if walked < k:  # K walked rows would cost K times as much and could round apart
        g = np.broadcast_to(g, (n, k, net.y_dim))
    w, beta = cfg.loss.weight_vector(net.y_dim), cfg.loss.beta
    pq_rows, grad = data_grad(y, g, w, beta)
    pq = value = float(np.mean(pq_rows))
    qq = float("nan") if k < 2 else 0.0  # K copies of one candidate: every pair has zero slope
    if walked >= 2 and cfg.gamma > 0.0:
        qq_rows, qq_grad = pair_grad(g, w, beta)
        qq = float(np.mean(qq_rows))
        value = pq - cfg.gamma * qq
        grad -= np.multiply(qq_grad, cfg.gamma, out=qq_grad)
    elif walked >= 2:
        qq = float(np.mean(pair_term(g, w, beta)))
    grad /= n
    if walked < k:
        grad = grad.sum(axis=1)
    return pq, qq, value, walk_back(params, inputs, grad.reshape(n * walked, net.y_dim), work)


def grad_check(f, params, step=GRAD_CHECK_STEP):
    """Max relative disagreement between an analytic gradient and central
    differences: the error ``grad_check_detail`` returns."""
    return grad_check_detail(f, params, step)[0]


def grad_check_detail(f, params, step=GRAD_CHECK_STEP, tolerance=GRAD_CHECK_TOLERANCE):
    """``max_i |analytic_i - numeric_i| / max(1e-8, |analytic_i| + |numeric_i|)``
    over central differences of absolute `step`, and how many coordinates
    were measured again.

    `f` maps a flat parameter vector to ``(objective value, gradient
    vector)``; it must be deterministic, and only the value is used at the
    perturbed points. A central difference cannot resolve a slope below its
    roundoff, about eps |f| / step: an exactly zero analytic slope meets a
    one-ulp difference, which the 1e-8 floor turns into a large relative
    error. Where the two disagree by `tolerance` or more and both sit below
    that bound, the coordinate is measured again with a step whose roundoff
    is half of `tolerance` times the floor, and that measurement stands: it
    passes only if it agrees.
    """
    if not step > 0.0:
        raise ParameterError("step must be positive")
    p = np.array(params, dtype=np.float64).reshape(-1)
    value, grad = f(p.copy())
    grad = np.asarray(grad, dtype=np.float64).reshape(-1)
    if grad.shape != p.shape:
        raise ContractError(f"gradient length {grad.size} does not match {p.size} parameters")
    if p.size == 0:
        return 0.0, 0
    numeric = np.array([_central_difference(f, p, i, step) for i in range(p.size)])
    err = np.abs(grad - numeric) / np.maximum(GRAD_CHECK_FLOOR, np.abs(grad) + np.abs(numeric))
    eps_f = np.finfo(np.float64).eps * abs(float(value))
    wide = 2.0 * eps_f / (tolerance * GRAD_CHECK_FLOOR)  # larger than step wherever `again` holds
    tiny = np.maximum(np.abs(grad), np.abs(numeric)) <= eps_f / step
    again = np.flatnonzero((err >= tolerance) & tiny)
    for i in again:
        n_i = _central_difference(f, p, i, wide)
        err[i] = abs(grad[i] - n_i) / max(GRAD_CHECK_FLOOR, abs(grad[i]) + abs(n_i))
    return float(np.max(err)), int(again.size)


def _central_difference(f, p, i, step):
    up, down = p.copy(), p.copy()
    up[i] += step
    down[i] -= step
    vp, vm = float(f(up)[0]), float(f(down)[0])
    if not (np.isfinite(vp) and np.isfinite(vm)):
        raise NumericError(f"non-finite objective at perturbed coordinate {i}")
    return (vp - vm) / (2.0 * step)


def candidate_pair_indices(num_candidates, num_examples):
    """Row indices of all ordered candidate pairs (k != k') per example block.

    For a (num_examples * num_candidates, y_dim) stack of candidates laid
    out example-major, returns two equal-length index vectors such that
    rows idx1[t] and idx2[t] are distinct candidates of the same example.
    """
    if num_candidates < 2:
        raise EstimatorError("pair indices need at least two candidates")
    k1, k2 = np.nonzero(~np.eye(num_candidates, dtype=bool))
    base = np.arange(num_examples)[:, None] * num_candidates
    idx1 = (base + k1[None, :]).ravel()
    idx2 = (base + k2[None, :]).ravel()
    return idx1, idx2


def disco_objective_node(g, params, batch, noises, config):
    """Build the objective as a graph over a minibatch; returns the root id.

    Parameters
    ----------
    g : Graph
    params : NetworkParams or BoundParams
        Pass a BoundParams (from ``bind_params``) to keep access to the
        parameter nodes for gradient collection.
    batch : (X, Y) arrays
    noises : array-like, shape (N, K, z_dim), or None
        Pre-drawn noise, held fixed during differentiation. Required when
        the network has its noise channel enabled; ignored otherwise.
    config : ObjectiveConfig

    The value equals ``disco_objective`` on the same candidates up to
    summation-order roundoff; the candidates are laid out example-major so
    reductions run over example index, then candidate index.
    """
    x, y = _batch_arrays(batch)
    n = x.shape[0]
    k = config.num_candidates
    bound = bind_params(g, params) if isinstance(params, NetworkParams) else params
    cfg = bound.config
    if x.shape[1] != cfg.x_dim or y.shape[1] != cfg.y_dim:
        raise DimensionError(
            f"batch dims {x.shape[1]}/{y.shape[1]} do not match net {cfg.x_dim}/{cfg.y_dim}"
        )
    znode = None
    if cfg.noise_enabled:
        if noises is None:
            raise ContractError("noise-enabled network needs pre-drawn noises")
        z = np.asarray(noises, dtype=np.float64)
        if z.shape != (n, k, cfg.z_dim):
            raise DimensionError(f"noises must be ({n}, {k}, {cfg.z_dim}), got {z.shape}")
        znode = g.constant(z.reshape(n * k, cfg.z_dim))
    xrep = g.constant(np.repeat(x, k, axis=0))
    rows = forward_rows(g, bound, xrep, znode)
    w = config.loss.weight_vector(cfg.y_dim)
    yrep = g.constant(np.repeat(y, k, axis=0))
    pq_terms = g.row_pow_norms(yrep, rows, weights=w, beta=config.loss.beta)
    root = g.scale(g.reduce_sum(pq_terms), 1.0 / (n * k))
    if config.gamma > 0.0:
        idx1, idx2 = candidate_pair_indices(k, n)
        qq_terms = g.row_pow_norms(
            g.gather_rows(rows, idx1),
            g.gather_rows(rows, idx2),
            weights=w,
            beta=config.loss.beta,
        )
        qq = g.scale(g.reduce_sum(qq_terms), 1.0 / (n * k * (k - 1)))
        root = g.add(root, g.scale(qq, -config.gamma))
    return root
