"""The sampled training objective and its differentiable graph form.

The scalar objective over a minibatch is

    DIVhat(P, Q) - gamma * DIVhat(Q, Q)

where DIVhat(P, Q) is the mean loss between each ground truth and the K
candidates sampled for its input, and DIVhat(Q, Q) is the mean loss over
ordered pairs of distinct candidates for the same input. Both are unbiased
in the candidate draws. gamma = 1/2 makes the per-example objective the
sampled energy score, hence (the negative of) a strictly proper scoring
rule; gamma = 0 drops the diversity term and trains a plain regressor.

The graph builder reproduces the same arithmetic with the noise draws held
fixed, so its gradient is exactly the gradient of the sampled objective.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, EstimatorError, ParameterError
from .network import NetworkParams, bind_params, forward_rows
from .scoring import LossSpec, data_term, pair_term


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
    """Normalize a batch to (X, Y) float64 matrices.

    Accepts an (X, Y) pair of arrays or a sequence of (x, y) pairs.
    """
    if isinstance(batch, tuple) and len(batch) == 2 and not np.isscalar(batch[0]):
        x, y = batch
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim == 2 and y.ndim == 2 and x.shape[0] == y.shape[0]:
            if x.shape[0] == 0:
                raise ContractError("empty batch")
            return x, y
    pairs = list(batch)
    if not pairs:
        raise ContractError("empty batch")
    x = np.asarray([np.asarray(p[0], dtype=np.float64).reshape(-1) for p in pairs])
    y = np.asarray([np.asarray(p[1], dtype=np.float64).reshape(-1) for p in pairs])
    return x, y


def _check_sets(candidate_sets, n=None):
    """Return the (K, y_dim) shape that every candidate set must share."""
    if not candidate_sets:
        raise ContractError("no candidate sets")
    if n is not None and len(candidate_sets) != n:
        raise ContractError(f"{n} examples but {len(candidate_sets)} candidate sets")
    shapes = {cs.outputs.shape for cs in candidate_sets}
    if len(shapes) != 1:
        raise ContractError(f"candidate sets must share one (K, y_dim) shape, got {sorted(shapes)}")
    return shapes.pop()


def div_pq_hat(batch, candidate_sets, loss=LossSpec()):
    """Mean loss between ground truths and their sampled candidates.

    Unbiased estimate of E Delta(Y, G) for Y from the data and G from the
    model, one candidate set per example. Summation order is fixed:
    example index, then candidate index.
    """
    _, y = _batch_arrays(batch)
    _, y_dim = _check_sets(candidate_sets, n=y.shape[0])
    if y.shape[1] != y_dim:
        raise DimensionError(f"ground truths have dim {y.shape[1]}, candidates {y_dim}")
    w = loss.weight_vector(y_dim)
    per_example = [float(data_term(yn, cs.outputs, w, loss.beta)) for yn, cs in zip(y, candidate_sets)]
    return float(np.mean(per_example))


def div_qq_hat(candidate_sets, loss=LossSpec()):
    """Mean loss over ordered pairs of distinct candidates per input.

    Unbiased estimate of E Delta(G, G') for two independent model samples
    at the same input; needs K >= 2.
    """
    k, y_dim = _check_sets(candidate_sets)
    if k < 2:
        raise EstimatorError("pair diversity needs at least two candidates")
    w = loss.weight_vector(y_dim)
    per_example = [float(pair_term(cs.outputs, w, loss.beta)) for cs in candidate_sets]
    return float(np.mean(per_example))


def disco_objective(batch, candidate_sets, config):
    """The sampled objective DIVhat(P,Q) - gamma * DIVhat(Q,Q)."""
    pq = div_pq_hat(batch, candidate_sets, config.loss)
    if config.gamma == 0.0:
        return pq
    return pq - config.gamma * div_qq_hat(candidate_sets, config.loss)


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
    batch : (X, Y) arrays or sequence of (x, y) pairs
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
