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
its gradient, with the noise draws held fixed: one forward pass, the loss
gradient in closed form, and a hand-written backward pass. The graph
builder ``disco_objective_node`` states the same arithmetic through the
reverse-mode graph; it is kept as the independent reference that tests
compare the fused gradient against.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import SINGULARITY_EPS
from .errors import ContractError, DimensionError, EstimatorError, ParameterError
from .network import NetworkParams, bind_params, candidate_array, forward_rows, layer_walk
from .scoring import LossSpec, data_term, pair_term, sorted_pairs, sq_norm


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


def _norm_slope(s, upstream, beta):
    """upstream * beta * s^(beta/2 - 1), the gradient coefficient of
    s^(beta/2) with respect to the difference it was computed from (times
    w * d). It is zero where s < SINGULARITY_EPS: a valid subgradient at
    coincident points, and a measure-zero event under continuous noise."""
    with np.errstate(divide="ignore"):
        return np.where(s >= SINGULARITY_EPS, upstream * beta * s ** (beta / 2.0 - 1.0), 0.0)


def _sorted_pair_grad(g, w, upstream):
    """Gradient of upstream * sum_{a != b} sqrt(w) |g_a - g_b| with respect
    to each g_a, for (n, K) candidate values g of one output: 2 sqrt(w)
    upstream (#{b: g_b < g_a - t} - #{b: g_b > g_a + t}) with
    t = sqrt(SINGULARITY_EPS / w). This is _norm_slope's zero rule at
    beta = 1: exact ties and differences under t contribute 0."""
    t = np.sqrt(SINGULARITY_EPS / w)
    below = (g[:, None, :] < (g - t)[:, :, None]).sum(axis=2)
    above = (g[:, None, :] > (g + t)[:, :, None]).sum(axis=2)
    return (2.0 * np.sqrt(w) * upstream) * (below - above)


def objective_terms(params, x, y, z, cfg):
    """The sampled objective of one minibatch, its two terms and its gradient.

    Parameters
    ----------
    params : NetworkParams
    x, y : arrays of shape (n, x_dim) and (n, y_dim)
    z : array of shape (n, K, z_dim), or None
        Pre-drawn noise (``network.draw_noise``), held fixed. Required when
        the network has its noise channel enabled; a noise-free net ignores
        it and walks with noise of width zero.
    cfg : ObjectiveConfig

    Returns
    -------
    (pq, qq, value, grad)
        DIVhat(P,Q); DIVhat(Q,Q), or nan when K = 1; the objective
        ``pq - gamma * qq`` (``pq`` when gamma = 0); and the gradient of the
        objective in ``NetworkParams.to_flat`` order.

    One forward pass, ``network.layer_walk``, keeps every layer's input:
    the encoder runs on the n input rows, the layers after the noise join
    on the n K candidate rows. The pre-activations are not kept, since
    ReLU(pre) > 0 exactly where pre > 0. The data term is taken on the
    (n K, y_dim) differences to y. The pair term has two forms, chosen by
    ``scoring.sorted_pairs`` from the shape and the loss alone. With one
    output and beta = 1 it is ``scoring.pair_term`` on sorted candidates,
    and candidate a's pair gradient counts the candidates below and above
    it (``_sorted_pair_grad``); no (n, K, K) float array is built.
    Otherwise it is one (n, K, K, y_dim) broadcast of candidate
    differences, and since the pair coefficient c_ab is symmetric in a and
    b, candidate a's pair gradient is 2 * sum_b c_ab w (g_a - g_b). A
    hand-written backward pass carries the candidate gradient through the
    layers; ReLU has derivative 0 at 0. At the join layer the gradient is
    summed over each input's K candidates once, so the encoder's backward
    also runs on n rows.

    Rows are example-major, and the loss terms of the broadcast form sum in
    the order the graph form ``disco_objective_node`` sums them; the sorted
    form sums its pairs in another order. The graph form runs every layer
    on n K repeated rows and never splits the join layer's matmul, so the
    two agree to roundoff, not bitwise. Nothing is checked for finiteness
    here; the caller checks the value and the gradient.
    """
    net = params.config
    x, y = _batch_arrays((x, y))
    if y.shape[1] != net.y_dim:
        raise DimensionError(f"y has dim {y.shape[1]}, the net outputs {net.y_dim}")
    n, k, m = x.shape[0], cfg.num_candidates, net.y_dim
    inputs = []
    for h, out in layer_walk(params, x, z, k):
        inputs.append(h)

    wl, beta = cfg.loss.weight_vector(m), cfg.loss.beta
    d = out - np.repeat(y, k, axis=0)
    s = sq_norm(d, wl)
    scale = 1.0 / (n * k)
    pq = float(np.sum(s ** (beta / 2.0))) * scale
    grad_out = _norm_slope(s, scale, beta)[:, None] * (wl * d)
    qq = float("nan")
    value = pq
    if k >= 2:
        g = out.reshape(n, k, m)
        pair_scale = 1.0 / (n * k * (k - 1))
        if sorted_pairs(m, beta):
            qq = float(np.mean(pair_term(g, wl, beta)))
            if cfg.gamma > 0.0:
                value = pq - cfg.gamma * qq
                pair_grad = _sorted_pair_grad(g[:, :, 0], wl[0], pair_scale * -cfg.gamma)
                grad_out = pair_grad.reshape(n * k, 1) + grad_out
        else:
            # diff[i, b, a] = g_a - g_b: the sum over axis 1 runs over b in order
            diff = g[:, None, :, :] - g[:, :, None, :]
            s_pair = sq_norm(diff.reshape(-1, m), wl).reshape(n, k, k)
            # the distinct pairs as one flat run, summed the way the graph form sums them
            distinct = s_pair[:, ~np.eye(k, dtype=bool)].ravel()
            qq = float(np.sum(distinct ** (beta / 2.0))) * pair_scale
            if cfg.gamma > 0.0:
                value = pq - cfg.gamma * qq
                c = _norm_slope(s_pair, pair_scale * -cfg.gamma, beta)
                pair_grad = (c[..., None] * (wl * diff)).sum(axis=1)
                grad_out = 2.0 * pair_grad.reshape(n * k, m) + grad_out

    join = len(net.encoder_widths)
    grads = []
    delta = grad_out
    for li in range(len(inputs) - 1, -1, -1):
        h, w = inputs[li], params.layers[li][0]
        gb = delta.sum(axis=0)
        if li == join:
            # h is shared by an input's K candidates, z is drawn per candidate
            (h, zj), ds = h, delta.reshape(n, k, -1).sum(axis=1)
            gw = np.concatenate([h.T @ ds, zj.T @ delta])
            delta, w = ds, w[: h.shape[1]]
        else:
            gw = h.T @ delta
        grads.append((gw.ravel(), gb))
        if li > 0:
            # h = ReLU(pre) of the layer below, so pre > 0 exactly where h > 0
            delta = (delta @ w.T) * (h > 0.0)
    return pq, qq, value, np.concatenate([part for pair in reversed(grads) for part in pair])


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
