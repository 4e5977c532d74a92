"""Synthetic data, CSV ingestion, and grid-search Gaussian fitting.

The 2-D mixture task: data from a two-component diagonal Gaussian mixture
is fitted by a single diagonal Gaussian under different weighted losses by
exhaustive grid search on the sampled dissimilarity estimate. Evaluating
each fitted model under each loss gives a cross table whose diagonal
should dominate: training under a loss wins when judged by that loss.

Common random numbers: all grid points see the same standard-normal draws,
so the argmin is stable at small sample counts and ties are broken by grid
iteration order alone.
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


def _grid_table(y, axes, w, beta, gamma, eps):
    """Sampled dissimilarity of every grid point against the data `y` (n, 2),
    with model samples mu + sigma * eps for the shared draws `eps` (n, m, 2).

    `axes` holds the candidate values of (mu1, mu2, sigma1, sigma2); returns
    the C-ordered array over them. The squared norm of a difference is an
    axis-1 term, set by (mu1, sigma1), plus an axis-2 term, set by (mu2,
    sigma2): the axis-1 terms of all mu1 values are built once per sigma1,
    those of all mu2 values once per sigma pair, and each grid point only
    adds the two.

    Reduction order: a point's data term is one sum over its n * m
    contiguous values, divided by n * m; it is not a mean over m and then
    over n. The diversity term depends on the sigmas alone. The weighted
    squared differences w_i (eps_a - eps_b)^2 of each axis are built once
    per fit, for the candidate pairs a < b only. Each sigma pair scales
    them by sigma_i^2, adds the two axes and sums the beta/2 powers over
    all n and all pairs. Doubling that sum counts the pairs a > b. A
    point's value is its data sum over n * m less gamma times the doubled
    pair sum over n * m * (m - 1).

    Values match the per-point form, the mean over n of data_term less
    gamma * pair_term, to a few ulp and not bitwise: the axis terms are
    added by one `+` where sq_norm's matmul sums them its own way, sigma
    scales the difference of the draws rather than each sample, and the
    sums run in another order.
    """
    n, m = eps.shape[:2]
    mu1_values, mu2_values, sigma1_values, sigma2_values = axes
    mu1 = np.asarray(mu1_values)[:, None, None]
    mu2 = np.asarray(mu2_values)[:, None, None]
    e1, e2 = np.moveaxis(eps, -1, 0).copy()
    table = np.empty(tuple(len(values) for values in axes))
    half = beta / 2.0
    if gamma > 0.0:
        a, b = np.triu_indices(m, 1)
        pairs1 = axis_sq(e1[:, a] - e1[:, b], w[0])
        pairs2 = axis_sq(e2[:, a] - e2[:, b], w[1])
        scaled1 = np.empty_like(pairs1)
        sq = np.empty_like(pairs2)
        pair_scale = gamma * 2.0 / (n * m * (m - 1))
    term1 = np.empty((mu1.shape[0], n, m))
    term2 = np.empty((mu2.shape[0], n, m))
    point = np.empty_like(term1)
    rows = point.reshape(mu1.shape[0], n * m)
    diversity = 0.0
    for i, s1 in enumerate(sigma1_values):
        _axis_terms(y[:, :1], mu1, s1, e1, w[0], term1)
        if gamma > 0.0:
            np.multiply(pairs1, s1 * s1, out=scaled1)
        for j, s2 in enumerate(sigma2_values):
            _axis_terms(y[:, 1:], mu2, s2, e2, w[1], term2)
            if gamma > 0.0:
                np.multiply(pairs2, s2 * s2, out=sq)
                sq += scaled1
                sq **= half
                diversity = pair_scale * sq.sum()
            for k in range(mu2.shape[0]):
                np.add(term1, term2[k], out=point)
                point **= half
                table[:, k, i, j] = rows.sum(axis=-1) / (n * m) - diversity
    return table


def _axis_terms(y_i, mu, s, e_i, w_i, out):
    """axis_sq(y_i - (mu + s * e_i), w_i) into `out`, for the (n, 1) data
    column y_i, the (p, 1, 1) candidate means mu of one axis, its sigma s and
    the (n, m) draws e_i: the axis terms of all p means, shape (p, n, m)."""
    np.add(mu, s * e_i, out=out)
    np.subtract(y_i, out, out=out)
    return axis_sq(out, w_i, out=out)


def fit_gaussian_grid(train, grid, loss, gamma=TOY_GAMMA, m=TOY_M, *, rng):
    """Exhaustive argmin of the sampled dissimilarity over the grid.

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

    Returns the fitted point as a dict of the FIT_KEYS. Ties keep the
    earliest grid point in iteration order: the first minimum of the
    C-ordered (mu1, mu2, sigma1, sigma2) table, the last axis fastest. A
    grid point whose objective is not finite (a sigma so large that the
    samples overflow) raises NumericError naming it.
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
    axes = (mu_values, mu_values, sigma_values, sigma_values)
    # overflow is reported below as a NumericError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        table = _grid_table(y, axes, w, loss.beta, gamma, eps)
    bad = np.flatnonzero(~np.isfinite(table))
    flat = bad[0] if bad.size else np.argmin(table)
    index = np.unravel_index(flat, table.shape)
    point = {key: vals[i] for key, vals, i in zip(FIT_KEYS, axes, index)}
    if bad.size:
        raise NumericError(
            f"toy grid point {point} gives a non-finite objective "
            f"({table.flat[flat]}) under loss weights {w.tolist()}"
        )
    return point


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
