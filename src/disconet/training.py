"""Minibatch SGD with momentum and L2 over the sampled training objective.

Every epoch reshuffles the training set, draws fresh noise per example and
candidate, computes the objective and its gradient per minibatch with
``objective_terms``, and takes one momentum step per batch. The last
incomplete minibatch is used, weighted by its own size in the epoch
aggregate. All randomness comes from named substreams of the config seed,
so a rerun with the same config is bitwise identical.
"""

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError, NumericError, ParameterError
from .network import NetworkParams, draw_noise, init_params, sample_outputs
from .objective import ObjectiveConfig, _batch_arrays, disco_objective, objective_terms
from .rng import derive_seed, substream


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings around an ObjectiveConfig."""

    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    lr: float = 0.01
    momentum: float = 0.9
    l2: float = 0.0
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    val_count: int = 0
    checkpoint_every: int = 0

    def __post_init__(self):
        if not self.lr > 0.0:
            raise ParameterError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError("momentum must lie in [0, 1)")
        if self.l2 < 0.0:
            raise ParameterError("l2 must be non-negative")
        if self.batch_size < 1 or self.epochs < 1:
            raise ParameterError("batch_size and epochs must be >= 1")
        if self.val_count < 0 or self.checkpoint_every < 0:
            raise ParameterError("val_count and checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")


@dataclass
class EpochStats:
    """One epoch's size-weighted means over its minibatches: the objective
    and its data-fit term DIVhat(P,Q) and diversity term DIVhat(Q,Q) (nan
    when K = 1), so that train_objective = train_pq - gamma * train_qq. A
    sampler collapsing onto a point shows as train_qq going to 0."""

    epoch: int
    train_objective: float
    val_objective: float
    seconds: float
    train_pq: float
    train_qq: float


def train_val_split(data, val_count, seed):
    """Disjoint, exhaustive train/validation split by a seeded shuffle.

    Returns ``((x_train, y_train), (x_val, y_val))``.
    """
    x, y = _batch_arrays(data)
    n = x.shape[0]
    if not 0 < val_count < n:
        raise ContractError(f"val_count must lie strictly between 0 and {n}, got {val_count}")
    perm = substream(seed, "split").permutation(n)
    val_idx = perm[:val_count]
    train_idx = perm[val_count:]
    return (x[train_idx], y[train_idx]), (x[val_idx], y[val_idx])


def sgd_momentum_step(params, grads, velocity, lr, momentum, l2=0.0, weight_mask=None,
                      scratch=None):
    """One update: v <- momentum v - lr (g + l2 theta); theta <- theta + v.

    With a weight mask the L2 term applies only where the mask is True
    (weights yes, biases no). Returns ``(new_params, new_velocity)``: new
    arrays, or with `scratch`, an array like `params` that takes the step,
    `params` and `velocity` themselves, updated in place.
    """
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    v = np.asarray(velocity, dtype=np.float64)
    if p.shape != g.shape or p.shape != v.shape:
        raise DimensionError(
            f"params {p.shape}, grads {g.shape}, velocity {v.shape} must share a shape"
        )
    if scratch is None:
        p, v, scratch = p.copy(), v.copy(), np.empty_like(p)
    step = np.multiply(p, l2, out=scratch)
    if weight_mask is not None:
        step *= weight_mask
    step += g
    step *= lr
    v *= momentum
    v -= step
    p += v
    return p, v


def validation_objective(params, data, objective, rng, work=None):
    """The sampled objective on a held-out set with fresh noise draws,
    sampled into the arrays of `work` when given (``network.layer_walk``)."""
    x, y = _batch_arrays(data)
    outs = sample_outputs(params, x, objective.num_candidates, rng, work)
    return disco_objective(y, outs, objective)


def train(net_config, train_config, data, checkpoint_dir=None):
    """Run the full training loop; returns ``(params, epochs)``, with one
    ``EpochStats`` per epoch in order.

    Substreams of the config seed: "split" for the validation split,
    "init" for parameter init, "shuffle" for epoch permutations, "noise"
    for training noise, and "val-noise" for validation noise. A non-finite
    objective value or gradient aborts with the epoch and batch in the error.
    With ``checkpoint_every``, every that many epochs the parameters go to
    ``checkpoint_dir``, which is created at the first such save.
    """
    x, y = _batch_arrays(data)
    if x.shape[1] != net_config.x_dim or y.shape[1] != net_config.y_dim:
        raise DimensionError(
            f"data dims {x.shape[1]}/{y.shape[1]} do not match net {net_config.x_dim}/{net_config.y_dim}"
        )
    cfg = train_config
    if cfg.val_count:
        (x_train, y_train), (x_val, y_val) = train_val_split((x, y), cfg.val_count, cfg.seed)
    else:
        x_train, y_train = x, y
        x_val = y_val = None
    n = x_train.shape[0]
    if n < 1:
        raise ContractError("no training examples left after the split")
    k = cfg.objective.num_candidates
    params = init_params(net_config, derive_seed(cfg.seed, "init"))
    mask = params.weight_mask()
    # the steps update `flat` and `velocity` in place; `params` views `flat`
    flat, velocity, scratch = params.to_flat(), np.zeros(params.size), np.empty(params.size)
    params = NetworkParams(net_config, flat, copy=False)
    work = {}  # the walks' arrays, by batch shape
    shuffle_rng = substream(cfg.seed, "shuffle")
    noise_rng = substream(cfg.seed, "noise")
    val_rng = substream(cfg.seed, "val-noise")
    epochs = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(3)  # size-weighted value, pq, qq
        for bi, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            noises = draw_noise(net_config, len(idx), k, noise_rng, work)
            pq, qq, value, grads = objective_terms(params, xb, yb, noises, cfg.objective, work)
            if not (math.isfinite(value) and np.all(np.isfinite(grads))):
                raise NumericError(f"epoch {epoch}, batch {bi}: non-finite objective or gradient")
            sgd_momentum_step(flat, grads, velocity, cfg.lr, cfg.momentum, cfg.l2, mask, scratch)
            sums += np.array([value, pq, qq]) * len(idx)
        train_obj, train_pq, train_qq = (float(v) for v in sums / n)
        if x_val is not None:
            val_obj = validation_objective(params, (x_val, y_val), cfg.objective, val_rng, work)
        else:
            val_obj = float("nan")
        epochs.append(
            EpochStats(epoch, train_obj, val_obj, time.perf_counter() - t0, train_pq, train_qq)
        )
        if checkpoint_dir is not None and cfg.checkpoint_every:
            if epoch % cfg.checkpoint_every == 0:
                params.save(Path(checkpoint_dir) / f"checkpoint_epoch_{epoch}.txt")
    return NetworkParams(net_config, flat), epochs
