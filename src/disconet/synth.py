"""Synthetic data, CSV ingestion, and grid-search Gaussian fitting.

The 2-D mixture task: data from a two-component diagonal Gaussian mixture
is fitted by a single diagonal Gaussian under different weighted losses by
the exact argmin of the sampled dissimilarity estimate over a grid.
Evaluating each fitted model under each loss gives a cross table whose
diagonal should dominate: training under a loss wins when judged by that loss.

Common random numbers: all grid points see the same standard-normal draws,
so the argmin is stable at small sample counts and ties are broken by grid
iteration order alone. The argmin is found by branch and bound: a point's
value, the powers of its summed axis terms less the diversity term, is at
least Minkowski's bound on its two per-axis sums of powers (0 where both
are 0), times 1 - BOUND_MARGIN for pow and sum rounding. Points are computed
as full table rows in ascending bound order until a bound exceeds the least
value, so the result is the table's first minimum.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, NumericError, ParameterError
from .rng import substream
from .scoring import LossSpec, axis_sq, data_term, mean_sem, pair_term
from .strictjson import read_file, read_rows

TOY_GAMMA = 0.5
TOY_M = 24  # model samples per data point
TOY_N = 400  # train and test points per seed
BIMODAL_NOISE_SIGMA = 0.1
BOUND_MARGIN = 1e-9  # relative margin of fit_gaussian_grid's lower bound


def _read_only(values):
    a = np.array(values, dtype=np.float64)
    a.setflags(write=False)
    return a


# Mixture separated along the diagonal, anisotropic within components, so
# the two weighted losses produce visibly different single-Gaussian fits.
# The component means (2, 2), per-axis stddevs (2, 2) and weights (2,).
TOY_MIXTURE = (
    _read_only([[-1.4, -1.4], [1.4, 1.4]]),
    _read_only([[0.5, 1.5], [0.5, 1.5]]),
    _read_only([0.5, 0.5]),
)

# A fitted diagonal Gaussian is the plain dict of these keys, as
# fitted_params.json holds it: per-axis mean and stddev.
FIT_KEYS = ("mu1", "mu2", "sigma1", "sigma2")


# The toy grid: every value of TOY_MU_VALUES on both mean axes and every
# value of TOY_SIGMA_VALUES on both stddev axes, 9 * 9 * 10 * 10 points.
TOY_MU_VALUES = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
TOY_SIGMA_VALUES = (0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4, 2.7, 3.0)


class _Grid(NamedTuple):
    """The (mu_values, sigma_values) pair that toy_cross_table hands to
    fit_gaussian_grid. ``size()`` is its point count: the benchmark's tracer
    (bench/spans.py) reads it from the grid argument of every traced fit."""

    mu_values: tuple
    sigma_values: tuple

    def size(self):
        return len(self.mu_values) ** 2 * len(self.sigma_values) ** 2


def gen_gmm2d(mixture, n, rng):
    """Draw n points, shape (n, 2), from the mixture of diagonal Gaussians
    given as (means, stddevs, weights) arrays, one row per component."""
    if n < 1:
        raise ContractError("n must be >= 1")
    means, stddevs, weights = mixture
    which = rng.choice(len(weights), size=n, p=weights)
    eps = rng.standard_normal((n, 2))
    return means[which] + stddevs[which] * eps


def gen_conditional_bimodal(n, rng, noise_sigma=BIMODAL_NOISE_SIGMA):
    """Scalar-input bimodal regression task: y = +-(1 + x^2) + noise.

    x is uniform on [-1, 1]; the sign is an even coin flip, so the
    conditional law of y given x has two modes a distance 2 (1 + x^2)
    apart. Returns (X, Y) with shapes (n, 1).
    """
    if n < 1:
        raise ContractError("n must be >= 1")
    if noise_sigma < 0.0:
        raise ContractError("noise_sigma must be non-negative")
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    sign = rng.integers(0, 2, size=(n, 1)) * 2 - 1
    eps = rng.standard_normal((n, 1)) * noise_sigma
    y = sign * (1.0 + x * x) + eps
    return x, y


def load_csv(path, x_dim, y_dim):
    """The x and y columns of a CSV, x_dim + y_dim numbers a row, '#' lines skipped."""
    table = read_rows(path, read_file(path), int(x_dim) + int(y_dim), comments=True)
    return table[:, :x_dim].copy(), table[:, x_dim:].copy()


def _toy_inputs(name, data, loss, gamma, m, rng):
    """Check the arguments of a toy fit or evaluation; returns the (n, 2)
    data as float64, the (n, m, 2) standard-normal draws from `rng` that
    all model samples share, and the loss weight vector."""
    y = np.asarray(data, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != 2 or y.shape[0] < 1:
        raise ContractError(f"{name} must be a non-empty (n, 2) array, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ContractError(f"{name} holds non-finite values")
    if m < 2:
        raise ContractError("m must be >= 2")
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    return y, rng.standard_normal((y.shape[0], m, 2)), loss.weight_vector(2)


def _axis_terms(y_i, mu, s, e_i, w_i, out):
    """axis_sq(y_i - (mu + s * e_i), w_i) into `out`, for the (n, 1) data
    column y_i, the (p, 1, 1) candidate means mu of one axis, its sigma s and
    the (n, m) draws e_i: the axis terms of all p means, shape (p, n, m), or
    bitwise the same (n, m) terms of one mean for a scalar mu."""
    np.add(mu, s * e_i, out=out)
    np.subtract(y_i, out, out=out)
    return axis_sq(out, w_i, out=out)


def _diversities(e, w, sigma_values, half, gamma):
    """gamma times the pair term of every (sigma1, sigma2) pair, shape (q, q),
    for the (2, n, m) draws e: w_i (e_ia - e_ib)^2 of each axis is built once
    for the pairs a < b, scaled by each sigma_i^2 and the two axes added; the
    sum of their beta/2 powers is doubled to count the pairs a > b."""
    (n, m), q = e.shape[1:], len(sigma_values)
    out = np.zeros((q, q))
    if gamma > 0.0:
        a, b = np.triu_indices(m, 1)
        pairs1, pairs2 = (axis_sq(e_i[:, a] - e_i[:, b], w_i) for e_i, w_i in zip(e, w))
        scaled1, sq = np.empty_like(pairs1), np.empty_like(pairs2)
        pair_scale = gamma * 2.0 / (n * m * (m - 1))
        for i, s1 in enumerate(sigma_values):
            np.multiply(pairs1, s1 * s1, out=scaled1)
            for j, s2 in enumerate(sigma_values):
                np.multiply(pairs2, s2 * s2, out=sq)
                sq += scaled1
                sq **= half
                out[i, j] = pair_scale * sq.sum()
    return out


def _grid_bounds(y, e, w, mu_values, sigma_values, half, gamma):
    """The lower bounds of all grid points' values (see fit_gaussian_grid),
    C-ordered over (mu1, mu2, sigma1, sigma2); the (q, q) diversities; and the
    C-ordered flat indices of the points whose largest axis terms or diversity
    may make them non-finite, for the (n, 2) data y and (2, n, m) draws e."""
    p, (n, m) = len(mu_values), e.shape[1:]
    mu, terms = np.asarray(mu_values)[:, None, None], np.empty((p, n, m))
    rows = terms.reshape(p, n * m)
    sums, most = np.empty((2, 2, p, len(sigma_values)))  # [axis, mu, sigma]
    for i, j in np.ndindex(sums.shape[0], sums.shape[-1]):
        _axis_terms(y[:, i:i + 1], mu, sigma_values[j], e[i], w[i], terms)
        most[i, :, j] = rows.max(axis=-1)
        terms **= half
        sums[i, :, j] = rows.sum(axis=-1)
    diversity = _diversities(e, w, sigma_values, half, gamma)
    # twice the largest sum a point's powers can reach: not finite where one may overflow
    most = (most[0][:, None, :, None] + most[1][None, :, None, :]) ** half * (2 * n * m)
    sum1, sum2 = sums[0][:, None, :, None], sums[1][None, :, None, :]
    big, small = np.maximum(sum1, sum2), np.minimum(sum1, sum2)
    # (S_A^(1/h) + S_B^(1/h))^h over the larger sum, which cannot overflow; 0, not a NaN that
    # would sort last, where both sums are 0
    ratio = np.divide(small, big, out=np.zeros(big.shape), where=big > 0.0)
    bound = big * (1.0 + ratio ** (1.0 / half)) ** half * (1.0 - BOUND_MARGIN) / (n * m) - diversity
    return bound, diversity, np.flatnonzero(~np.isfinite(most + diversity))


def fit_gaussian_grid(train, grid, loss, gamma=TOY_GAMMA, m=TOY_M, *, rng):
    """Exact argmin of the sampled dissimilarity over the grid, by branch and bound.

    Parameters
    ----------
    train : array-like, shape (n, 2)
    grid : pair of sequences (mu_values, sigma_values)
        Candidate means, used on both axes, and candidate stddevs, used on
        both axes. Each must be non-empty and finite, the stddevs positive.
    loss : LossSpec
    gamma : float
        Diversity weight; 1/2 makes the criterion the sampled energy score.
    m : int
        Model samples per data point (>= 2).
    rng : numpy Generator
        Source of the standard-normal draws shared by all grid points.

    A point's value is sum((A + B) ** (beta/2)) / (n m) - D: A holds its n * m
    axis-1 terms, set by (mu1, sigma1), B its axis-2 terms, set by (mu2,
    sigma2), and D is the diversity term of (sigma1, sigma2). Let h = beta/2
    <= 1 and S_A, S_B be the sums of A ** h and B ** h. Each (A_t + B_t) ** h
    is the 1/h-norm of (A_t ** h, B_t ** h), so Minkowski's inequality (Hardy,
    Littlewood and Polya 1934, 2.11) gives sum((A + B) ** h) >= (S_A ** (1/h)
    + S_B ** (1/h)) ** h. Computed as big (1 + (small / big) ** (1/h)) ** h
    over the larger and smaller sum, and as exactly 0 where both are 0, times
    (1 - BOUND_MARGIN) / (n m), less D, it bounds the computed value from
    below: the margin covers a pow that is not correctly rounded and another
    summation order. Points are computed as full table rows, in
    ascending bound order until a bound exceeds the least value (Land and
    Doig 1960). No point left out can reach it, so the result is the full
    table's first minimum: ties keep the earliest point of the C-ordered
    (mu1, mu2, sigma1, sigma2) table, the last axis fastest.

    Returns the fitted point as a dict of the FIT_KEYS. A grid point whose
    objective is not finite (a sigma so large that the samples overflow)
    raises NumericError naming it, the first in that order.
    """
    mu_values, sigma_values = (tuple(float(v) for v in values) for values in grid)
    for name, values in (("mu_values", mu_values), ("sigma_values", sigma_values)):
        if not values:
            raise ContractError(f"{name} must not be empty")
        if not all(map(math.isfinite, values)):
            raise ContractError(f"{name} must be finite, got {values}")
    if min(sigma_values) <= 0.0:
        raise ContractError("sigma grid values must be positive")
    y, eps, w = _toy_inputs("train", train, loss, gamma, m, rng)
    axes, e = (mu_values, mu_values, sigma_values, sigma_values), np.moveaxis(eps, -1, 0).copy()
    shape, terms, half = tuple(map(len, axes)), np.empty(e.shape), loss.beta / 2.0

    def value(ix):
        # the point's two axis rows, added, raised and summed as a table row
        for i in range(2):
            _axis_terms(y[:, i:i + 1], mu_values[ix[i]], sigma_values[ix[i + 2]], e[i], w[i], terms[i])
        np.add(terms[0], terms[1], out=terms[0])
        terms[0] **= half
        return terms[0].reshape(1, -1).sum(axis=-1)[0] / terms[0].size - diversity[ix[2:]]

    # overflow is reported below as a NumericError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        bound, diversity, unsure = _grid_bounds(y, e, w, mu_values, sigma_values, half, gamma)
        for index in zip(*np.unravel_index(unsure, shape)):
            v = value(index)
            if not np.isfinite(v):
                point = {key: vals[i] for key, vals, i in zip(FIT_KEYS, axes, index)}
                raise NumericError(f"toy grid point {point} gives a non-finite objective "
                                   f"({v}) under loss weights {w.tolist()}")
        best, least = None, np.inf
        for flat in np.argsort(bound, axis=None):
            if bound.flat[flat] > least:
                break
            v = value(np.unravel_index(flat, shape))
            if v < least or v == least and flat < best:
                best, least = flat, v
    return {key: vals[i] for key, vals, i in zip(FIT_KEYS, axes, np.unravel_index(best, shape))}


def eval_gaussian(fit, test, loss, gamma=TOY_GAMMA, m=TOY_M, *, rng):
    """Sampled dissimilarity of a fitted Gaussian (the FIT_KEYS dict that
    ``fit_gaussian_grid`` returns) on held-out points.

    Returns ``(mean, sem)`` over the test points. A non-finite value (a NaN
    or infinity in the fit, or a sigma so large that the samples overflow)
    raises NumericError naming the fit.
    """
    y, eps, w = _toy_inputs("test", test, loss, gamma, m, rng)
    # overflow is reported below as a NumericError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mu1, mu2, sigma1, sigma2 = (fit[key] for key in FIT_KEYS)
        q = np.array([mu1, mu2]) + np.array([sigma1, sigma2]) * eps
        vals = data_term(y, q, w, loss.beta)
        if gamma > 0.0:
            vals = vals - gamma * pair_term(q, w, loss.beta)
    if not np.all(np.isfinite(vals)):
        raise NumericError(
            f"fitted Gaussian {fit} gives a non-finite test objective "
            f"under loss weights {w.tolist()}"
        )
    return mean_sem(vals)


# The two cross-evaluation losses for the 2-D mixture: the same norm with
# the heavy weight on the first or on the second output axis.
LOSS_DIM1 = LossSpec(beta=1.0, weights=(10.0, 0.1))
LOSS_DIM2 = LossSpec(beta=1.0, weights=(0.1, 10.0))
TOY_LOSSES = (("dim1", LOSS_DIM1), ("dim2", LOSS_DIM2))


def toy_cross_table(seeds, mu_values=TOY_MU_VALUES, sigma_values=TOY_SIGMA_VALUES,
                    n_train=TOY_N, n_test=TOY_N, gamma=TOY_GAMMA, m=TOY_M):
    """Fit ``TOY_MIXTURE`` under each of ``TOY_LOSSES``, evaluate under each, per seed.

    The grid of every fit is ``mu_values`` on both mean axes and
    ``sigma_values`` on both stddev axes (see ``fit_gaussian_grid``).

    Evaluation draws are shared across fitted models within a task-loss
    column (common random numbers) so column comparisons are paired.

    Returns a dict with per-seed fitted parameters and tables, the
    seed-aggregated cross table (per-cell mean over seeds, sem across
    seeds), and ``diagonal_dominance``: True when in the aggregated
    table every task column is strictly minimized by the model trained
    under that column's loss. Per-seed cells can tie when the loss
    weighting leaves a fit direction nearly flat, so the contract is on
    the aggregate.
    """
    grid = _Grid(mu_values, sigma_values)
    names = [name for name, _ in TOY_LOSSES]
    per_seed = []
    for seed in seeds:
        data_rng = substream(seed, "toy-data")
        train = gen_gmm2d(TOY_MIXTURE, n_train, data_rng)
        test = gen_gmm2d(TOY_MIXTURE, n_test, data_rng)
        fits = {}
        for name, loss in TOY_LOSSES:
            fit_rng = substream(seed, "toy-fit", name)
            fits[name] = fit_gaussian_grid(train, grid, loss, gamma, m, rng=fit_rng)
        table = {}
        for train_name in names:
            table[train_name] = {}
            for task_name, task_loss in TOY_LOSSES:
                eval_rng = substream(seed, "toy-eval", task_name)
                table[train_name][task_name] = eval_gaussian(
                    fits[train_name], test, task_loss, gamma, m, rng=eval_rng
                )
        per_seed.append(
            {
                "seed": int(seed),
                "fits": fits,
                "table": table,
            }
        )
    aggregate = {
        train_name: {
            task_name: mean_sem([e["table"][train_name][task_name][0] for e in per_seed])
            for task_name in names
        }
        for train_name in names
    }
    dominant = True
    for task_name in names:
        own = aggregate[task_name][task_name][0]
        for train_name in names:
            if train_name != task_name and not own < aggregate[train_name][task_name][0]:
                dominant = False
    return {
        "losses": names,
        "per_seed": per_seed,
        "aggregate": aggregate,
        "diagonal_dominance": dominant,
    }
