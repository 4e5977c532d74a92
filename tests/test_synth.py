import hashlib
import itertools
import re

import numpy as np
import numpy.testing as npt
import pytest

from disconet import (
    ContractError,
    LOSS_DIM1,
    LOSS_DIM2,
    LossSpec,
    NumericError,
    ParseError,
    SchemaError,
    TOY_MIXTURE,
    fit_gaussian_grid,
    gen_conditional_bimodal,
    gen_gmm2d,
    load_csv,
    toy_cross_table,
)
from disconet import synth
from disconet.rng import substream
from disconet.scoring import axis_sq, data_term, pair_term
from disconet.synth import (
    FIT_KEYS,
    TOY_GAMMA,
    TOY_LOSSES,
    TOY_M,
    TOY_MU_VALUES,
    TOY_N,
    TOY_SIGMA_VALUES,
    _axis_terms,
    _grid_bounds,
    eval_gaussian,
)
from tests.conftest import save_csv


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_gaussian_parameters_must_be_finite(bad):
    """A fit dict is plain data, checked where it is used: a NaN or an
    infinity in a mean or a stddev makes eval_gaussian raise NumericError
    naming the fit."""
    test = gen_gmm2d(TOY_MIXTURE, 20, substream(0, "toy-data"))
    for values in ((bad, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, bad)):
        fit = dict(zip(FIT_KEYS, values))
        with pytest.raises(NumericError, match=re.escape(str(fit))):
            eval_gaussian(fit, test, LOSS_DIM1, m=4, rng=substream(0, "e"))


def test_gen_gmm2d_degenerate_components(rng):
    """With vanishing spreads every sample sits on a component mean, and
    the split between means is binomial in the weights."""
    means = np.array([[-3.0, 0.0], [2.0, 5.0]])
    stddevs = np.full((2, 2), 1e-9)
    weights = np.array([0.3, 0.7])
    n = 10_000
    pts = gen_gmm2d((means, stddevs, weights), n, rng)
    assert pts.shape == (n, 2)
    near_a = np.abs(pts - [-3.0, 0.0]).max(axis=1) < 1e-6
    near_b = np.abs(pts - [2.0, 5.0]).max(axis=1) < 1e-6
    assert np.all(near_a | near_b)
    # binomial count check, three sigma
    sd = np.sqrt(n * 0.3 * 0.7)
    assert abs(near_a.sum() - 0.3 * n) < 3 * sd


def test_gen_gmm2d_toy_draw_pinned():
    """Criterion 5's first training set, bit for bit: one choice of
    component per point with the weights, then one (n, 2) standard-normal
    draw. The digest is a literal, so it does not follow the code."""
    train = gen_gmm2d(TOY_MIXTURE, TOY_N, substream(0, "toy-data"))
    assert hashlib.sha256(train.tobytes()).hexdigest() == (
        "41cf12fef2017fd878b37b22d4576ee78cce6af5424ff060b64f8205b9d5685a")


def test_toy_mixture_is_read_only():
    for values in TOY_MIXTURE:
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_gen_gmm2d_mean_clt(rng):
    n = 100_000
    pts = gen_gmm2d(TOY_MIXTURE, n, rng)
    # symmetric mixture: population mean zero, per-axis variance
    # w * (s^2 + mu^2) summed over components
    var = 0.5 * (0.5**2 + 1.4**2) + 0.5 * (0.5**2 + 1.4**2)
    bound = 3 * np.sqrt(var / n)
    assert np.abs(pts[:, 0].mean()) < bound
    npt.assert_array_less(np.abs(pts.mean(axis=0)), bound * np.ones(2) + 1e-12)


def test_gen_conditional_bimodal(rng):
    x, y = gen_conditional_bimodal(5000, rng, noise_sigma=0.0)
    assert x.shape == (5000, 1)
    assert y.shape == (5000, 1)
    assert np.all(np.abs(x) <= 1.0)
    # noise-free magnitudes sit exactly on the two branches
    npt.assert_allclose(np.abs(y), 1.0 + x * x, rtol=1e-12)
    # both branches are populated about evenly
    frac_pos = (y > 0).mean()
    assert abs(frac_pos - 0.5) < 3 * np.sqrt(0.25 / 5000)
    with pytest.raises(ContractError):
        gen_conditional_bimodal(0, rng)
    with pytest.raises(ContractError):
        gen_conditional_bimodal(10, rng, noise_sigma=-0.1)


def test_csv_round_trip(tmp_path, rng):
    x = rng.normal(size=(7, 2))
    y = rng.normal(size=(7, 1))
    path = tmp_path / "data.csv"
    save_csv(path, x, y, comments=("generated for a test", "x1,x2,y"))
    x2, y2 = load_csv(path, 2, 1)
    npt.assert_array_equal(x, x2)
    npt.assert_array_equal(y, y2)


def test_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# header\n\n1.0,2.0,3.0\n\n# tail\n4.0,5.0,6.0\n")
    x, y = load_csv(path, 2, 1)
    npt.assert_array_equal(x, [[1.0, 2.0], [4.0, 5.0]])
    npt.assert_array_equal(y, [[3.0], [6.0]])


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0\n")
    with pytest.raises(SchemaError, match="line 2: expected 3 fields, got 2"):
        load_csv(path, 2, 1)
    path.write_text("1.0,2.0,zap\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(path, 2, 1)
    # float() reads digit grouping and non-ASCII digits: 15.0, 12.0 and 1.5,
    # and skips a no-break space
    for field in ("1_5", "\u0661\u0662", "\uff11.\uff15", "\u00a01.0"):
        path.write_text(f"0.5,2.5\n0.5,{field}\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path, 1, 1)


def test_csv_width_is_checked_row_by_row(tmp_path):
    """Rows of 3 and 1 fields hold 2 x 2 fields in all; the one-pass parse
    counts each row, so the first is refused by its own width."""
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4\n")
    with pytest.raises(SchemaError, match="line 1: expected 2 fields, got 3"):
        load_csv(path, 1, 1)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    x, y = load_csv(path, 2, 1)
    assert x.shape == (0, 2)
    assert y.shape == (0, 1)


def test_fit_gaussian_grid_point_mass():
    """Data concentrated at one grid point pulls the fitted mean there and
    the fitted spread to the smallest grid value."""
    train = np.tile([1.0, -0.5], (60, 1))
    grid = ((-1.0, -0.5, 0.0, 0.5, 1.0), (0.3, 1.0))
    fit = fit_gaussian_grid(train, grid, LossSpec(), gamma=0.5, m=24,
                            rng=substream(0, "fit"))
    assert fit == {"mu1": 1.0, "mu2": -0.5, "sigma1": 0.3, "sigma2": 0.3}


def test_fit_gaussian_grid_contracts():
    grid = ((0.0,), (0.3,))
    with pytest.raises(ContractError):
        fit_gaussian_grid(np.zeros((0, 2)), grid, LossSpec(), rng=substream(0, "f"))
    with pytest.raises(ContractError):
        fit_gaussian_grid(np.zeros((4, 2)), grid, LossSpec(), m=1, rng=substream(0, "f"))
    with pytest.raises(TypeError, match="rng"):
        fit_gaussian_grid(np.zeros((4, 2)), grid, LossSpec())  # rng required
    with pytest.raises(TypeError, match="rng"):
        eval_gaussian(dict(zip(FIT_KEYS, (0.0, 0.0, 1.0, 1.0))), np.zeros((4, 2)), LossSpec())


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_toy_data_must_be_finite(bad):
    """Non-finite data is the caller's fault: ContractError naming the
    argument, not a NumericError blaming the first grid point."""
    data = np.zeros((5, 2))
    data[3, 1] = bad
    grid = ((0.0,), (0.3,))
    with pytest.raises(ContractError, match="train"):
        fit_gaussian_grid(data, grid, LossSpec(), rng=substream(0, "f"))
    with pytest.raises(ContractError, match="test"):
        eval_gaussian(dict(zip(FIT_KEYS, (0.0, 0.0, 1.0, 1.0))), data, LossSpec(),
                      rng=substream(0, "e"))


def test_eval_gaussian_near_point_mass():
    """A tight model on tight data scores near zero under the energy
    criterion; a displaced model scores near the displacement."""
    test = np.tile([0.0, 0.0], (50, 1))
    tight = {"mu1": 0.0, "mu2": 0.0, "sigma1": 1e-6, "sigma2": 1e-6}
    mean, sem = eval_gaussian(tight, test, LossSpec(), gamma=0.5, m=24,
                              rng=substream(1, "eval"))
    assert abs(mean) < 1e-4
    off = dict(tight, mu1=1.0)
    mean, _ = eval_gaussian(off, test, LossSpec(), gamma=0.5, m=24,
                            rng=substream(1, "eval"))
    assert abs(mean - 1.0) < 1e-4


def _fit_grid(grid):
    train = gen_gmm2d(TOY_MIXTURE, 8, substream(0, "toy-data"))
    return fit_gaussian_grid(train, grid, LossSpec(), m=4, rng=substream(0, "f"))


def test_grid_spec_validation():
    """The grid is its two value lists: an empty list or a stddev that is
    not positive is refused before any work."""
    with pytest.raises(ContractError, match="mu_values must not be empty"):
        _fit_grid(((), (0.3,)))
    with pytest.raises(ContractError, match="sigma_values must not be empty"):
        _fit_grid(((0.0,), ()))
    for sigmas in ((0.0, 0.3), (0.3, -0.3)):
        with pytest.raises(ContractError, match="sigma grid values must be positive"):
            _fit_grid(((0.0,), sigmas))
    assert len(TOY_MU_VALUES) ** 2 * len(TOY_SIGMA_VALUES) ** 2 == 9 * 9 * 10 * 10


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", range(4))
def test_grid_spec_rejects_non_finite(where, bad):
    """A non-finite value at either end of either list is refused, naming
    the list: `where` is (list, end) as 2 * list + end."""
    lists = [[0.0, 1.0], [0.3, 1.0]]
    lists[where // 2][where % 2] = bad
    name = ("mu_values", "sigma_values")[where // 2]
    with pytest.raises(ContractError, match=f"{name} must be finite"):
        _fit_grid(lists)


def _reference_grid_fit(y, axes, w, beta, gamma, eps):
    """The per-point loop the vectorized table replaces: every grid point
    builds its samples and calls data_term and pair_term over the four
    `axes` (mu1, mu2, sigma1, sigma2). Returns the table and the first
    strict minimum in iteration order."""
    table = np.empty(tuple(len(a) for a in axes))
    best = None
    for idx in np.ndindex(table.shape):
        mu1, mu2, s1, s2 = (a[i] for a, i in zip(axes, idx))
        q = np.stack([mu1 + s1 * eps[..., 0], mu2 + s2 * eps[..., 1]], axis=-1)
        vals = data_term(y, q, w, beta)
        if gamma > 0.0:
            vals = vals - gamma * pair_term(np.asarray([s1, s2]) * eps, w, beta)
        table[idx] = vals.mean()
        if best is None or table[idx] < table[best]:
            best = idx
    return table, {key: a[i] for key, a, i in zip(FIT_KEYS, axes, best)}


def _grid_table(y, axes, w, beta, gamma, eps):
    """The full-table oracle of fit_gaussian_grid, which computes each point
    it evaluates as this table does: the sampled dissimilarity of every grid
    point against the data `y` (n, 2), with model samples mu + sigma * eps
    for the shared draws `eps` (n, m, 2).

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


# Axes (mu1, mu2, sigma1, sigma2) of different lengths, out of order, so a
# transposed or mis-raveled table changes the shape or the chosen point.
SHUFFLED_AXES = (
    (1.4, -1.4, 0.0),
    (0.0, 1.4, -0.7, -1.4),
    (0.9, 0.3, 1.5, 0.6, 2.1),
    (1.5, 0.3, 0.9),
)
# The fit's two lists, out of order: each is used on both of its axes.
SHUFFLED_GRID = ((1.4, -1.4, 0.0), (0.9, 0.3, 1.5, 0.6))


@pytest.mark.parametrize("loss", [LOSS_DIM1, LOSS_DIM2], ids=["dim1", "dim2"])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_fit_gaussian_grid_matches_point_loop(gamma, loss):
    w = loss.weight_vector(2)
    mus, sigmas = SHUFFLED_GRID
    # (n, m): the usual case, one candidate pair, an odd m, and one data point
    for (n, m), seed in itertools.product([(60, 8), (60, 2), (60, 3), (1, 8)], (0, 1, 2)):
        y = gen_gmm2d(TOY_MIXTURE, n, substream(seed, "toy-data"))
        eps = substream(seed, "toy-fit").standard_normal((n, m, 2))
        want_table, _ = _reference_grid_fit(y, SHUFFLED_AXES, w, loss.beta, gamma, eps)
        table = _grid_table(y, SHUFFLED_AXES, w, loss.beta, gamma, eps)
        assert table.shape == want_table.shape
        npt.assert_allclose(table, want_table, rtol=1e-13, atol=0.0)
        _, want_fit = _reference_grid_fit(y, (mus, mus, sigmas, sigmas), w, loss.beta, gamma, eps)
        fit = fit_gaussian_grid(y, SHUFFLED_GRID, loss, gamma, m=m,
                                rng=substream(seed, "toy-fit"))
        assert fit == want_fit


@pytest.mark.parametrize("name, want", [
    ("dim1", {"mu1": 0.0, "mu2": 0.0, "sigma1": 1.8, "sigma2": 1.8}),
    ("dim2", {"mu1": 0.0, "mu2": 0.0, "sigma1": 1.2, "sigma2": 2.1}),
], ids=["dim1", "dim2"])
def test_fit_gaussian_grid_full_size_pinned(name, want):
    """Criterion 5's first fits, at the default grid, n and m: a change of
    the kernel's rounding that moves an argmin shows here. The points are
    literals, so they do not follow the kernel under test."""
    loss = dict(TOY_LOSSES)[name]
    train = gen_gmm2d(TOY_MIXTURE, TOY_N, substream(0, "toy-data"))
    fit = fit_gaussian_grid(train, (TOY_MU_VALUES, TOY_SIGMA_VALUES), loss, TOY_GAMMA, TOY_M,
                            rng=substream(0, "toy-fit", name))
    assert fit == want


def test_fit_gaussian_grid_rejects_overflowing_point():
    """A sigma so large that the samples overflow makes that point's
    objective NaN; the fit names the point instead of choosing it."""
    grid = ((0.0, 1.0), (1e308, 0.5))
    train = gen_gmm2d(TOY_MIXTURE, 20, substream(0, "toy-data"))
    with pytest.raises(NumericError, match=r"'mu1': 0.0, 'mu2': 0.0, 'sigma1': 1e\+308"):
        fit_gaussian_grid(train, grid, LOSS_DIM1, m=4, rng=substream(0, "f"))


def _first_point(table, flat, axes):
    return {key: a[i] for key, a, i in zip(FIT_KEYS, axes, np.unravel_index(flat, table.shape))}


def _random_grid(seed):
    """Two short value lists drawn with replacement, each with a repeated
    value, so equal grid points tie exactly."""
    rs = np.random.default_rng(seed)
    mus = tuple(rs.choice(np.arange(-4, 5) * 0.5, size=rs.integers(2, 5)).tolist())
    sigmas = tuple(rs.choice([0.3, 0.6, 0.9, 1.5, 2.4], size=rs.integers(2, 5)).tolist())
    return mus + mus[-1:], sigmas + sigmas[:1]


# Losses of every beta the fit's bound must hold for; a zero weight makes the
# fit flat along an axis, so exact ties occur between distinct grid values.
BOUND_LOSSES = {
    f"beta{beta}-{name}": LossSpec(beta=beta, weights=weights)
    for beta in (0.5, 1.0, 1.5)
    for name, weights in (("weighted", (10.0, 0.1)), ("zero", (0.0, 1.0)))
}


@pytest.mark.parametrize("n, m", [(1, 8), (60, 2)])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("loss", BOUND_LOSSES.values(), ids=BOUND_LOSSES.keys())
def test_fit_gaussian_grid_is_the_tables_first_minimum(loss, gamma, n, m):
    """The pruned search returns the full table's first minimum on seeded
    random grids, ties included: at a zero weight every mu and sigma of
    that axis ties, and the first of each list must win."""
    w = loss.weight_vector(2)
    for seed in range(4):
        mus, sigmas = _random_grid(seed)
        axes = (mus, mus, sigmas, sigmas)
        y = gen_gmm2d(TOY_MIXTURE, n, substream(seed, "toy-data"))
        eps = substream(seed, "toy-fit").standard_normal((n, m, 2))
        table = _grid_table(y, axes, w, loss.beta, gamma, eps)
        fit = fit_gaussian_grid(y, (mus, sigmas), loss, gamma, m=m,
                                rng=substream(seed, "toy-fit"))
        assert fit == _first_point(table, np.argmin(table), axes)
        if w[0] == 0.0:
            assert (fit["mu1"], fit["sigma1"]) == (mus[0], sigmas[0])


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("loss", BOUND_LOSSES.values(), ids=BOUND_LOSSES.keys())
def test_grid_bounds_are_at_or_below_the_table(loss, gamma):
    """At every point of small grids, the bound the search prunes by is at
    or below the value the full table computes, and no point is flagged as
    possibly non-finite."""
    w = loss.weight_vector(2)
    for seed, (n, m) in itertools.product(range(3), [(1, 8), (60, 2), (40, 5)]):
        mus, sigmas = _random_grid(seed)
        y = gen_gmm2d(TOY_MIXTURE, n, substream(seed, "toy-data"))
        eps = substream(seed, "toy-fit").standard_normal((n, m, 2))
        table = _grid_table(y, (mus, mus, sigmas, sigmas), w, loss.beta, gamma, eps)
        bound, _, unsure = _grid_bounds(y, np.moveaxis(eps, -1, 0).copy(), w, mus, sigmas,
                                        loss.beta / 2.0, gamma)
        assert bound.shape == table.shape
        assert np.all(bound <= table)
        assert unsure.size == 0


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("loss", BOUND_LOSSES.values(), ids=BOUND_LOSSES.keys())
def test_grid_bounds_are_no_looser_than_the_larger_axis(loss, gamma):
    """Minkowski's bound on the two per-axis sums is at least the larger sum
    alone, max(S_A, S_B) (1 - BOUND_MARGIN) / (n m) - D, on the grids of
    test_grid_bounds_are_at_or_below_the_table, and above it somewhere."""
    w, half = loss.weight_vector(2), loss.beta / 2.0
    tighter = False
    for seed, (n, m) in itertools.product(range(3), [(1, 8), (60, 2), (40, 5)]):
        mus, sigmas = _random_grid(seed)
        y = gen_gmm2d(TOY_MIXTURE, n, substream(seed, "toy-data"))
        eps = substream(seed, "toy-fit").standard_normal((n, m, 2))
        e = np.moveaxis(eps, -1, 0).copy()
        bound, diversity, _ = _grid_bounds(y, e, w, mus, sigmas, half, gamma)
        sums = np.empty((2, len(mus), len(sigmas)))  # [axis, mu, sigma]
        for i, (j, s) in itertools.product(range(2), enumerate(sigmas)):
            terms = _axis_terms(y[:, i:i + 1], np.asarray(mus)[:, None, None], s, e[i], w[i],
                                np.empty((len(mus), n, m)))
            sums[i, :, j] = (terms ** half).reshape(len(mus), -1).sum(axis=-1)
        larger = np.maximum(sums[0][:, None, :, None], sums[1][None, :, None, :])
        old = larger * (1.0 - synth.BOUND_MARGIN) / (n * m) - diversity
        assert np.all(bound >= old)
        tighter |= bool(np.any(bound > old))
    assert tighter or 0.0 in w


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_fit_gaussian_grid_bound_is_zero_where_both_sums_are(gamma):
    """At (0, 0, 1e-200, 1e-200) every axis term underflows to 0 on both
    axes, so the bound there is 0, not 0/0: a NaN bound sorts last, and the
    search would stop before it reaches that point, the minimum."""
    train, grid, m = np.zeros((1, 2)), ((0.0, 1.0), (1e-200, 0.5)), 8
    axes = (grid[0], grid[0], grid[1], grid[1])
    eps = substream(0, "f").standard_normal((1, m, 2))
    w = LossSpec().weight_vector(2)
    for i in range(2):
        terms = _axis_terms(train[:, i:i + 1], 0.0, 1e-200, eps[..., i], 1.0, np.empty((1, m)))
        assert not np.any(terms)
    table = _grid_table(train, axes, w, 1.0, gamma, eps)
    fit = fit_gaussian_grid(train, grid, LossSpec(), gamma, m=m, rng=substream(0, "f"))
    assert fit == _first_point(table, np.argmin(table), axes)


def test_fit_gaussian_grid_prunes_most_points(monkeypatch):
    """Criterion 5's first fits evaluate at most 400 of the 8,100 points:
    the search computes two axis rows per point it evaluates, and the bounds
    one block of means per axis and sigma."""
    rows, axis_terms = [], synth._axis_terms
    monkeypatch.setattr(synth, "_axis_terms",
                        lambda *a: rows.append(np.ndim(a[1])) or axis_terms(*a))
    train = gen_gmm2d(TOY_MIXTURE, TOY_N, substream(0, "toy-data"))
    for name, loss in TOY_LOSSES:
        rows.clear()
        fit_gaussian_grid(train, (TOY_MU_VALUES, TOY_SIGMA_VALUES), loss, TOY_GAMMA, TOY_M,
                          rng=substream(0, "toy-fit", name))
        assert rows.count(3) == 2 * len(TOY_SIGMA_VALUES)
        assert 0 < rows.count(0) // 2 <= 400


def _raises_the_tables_first_non_finite(train, grid, loss, gamma, m, seed):
    """Checks that the fit raises the NumericError of the oracle table's
    first non-finite point, with its value; returns that index and value."""
    y = np.asarray(train, dtype=np.float64)
    axes = (grid[0], grid[0], grid[1], grid[1])
    eps = substream(seed, "f").standard_normal((y.shape[0], m, 2))
    w = loss.weight_vector(2)
    with np.errstate(over="ignore", invalid="ignore"):
        table = _grid_table(y, axes, w, loss.beta, gamma, eps)
    flat = np.flatnonzero(~np.isfinite(table))[0]
    want = (f"toy grid point {_first_point(table, flat, axes)} gives a non-finite objective "
            f"({table.flat[flat]}) under loss weights {w.tolist()}")
    with pytest.raises(NumericError) as caught:
        fit_gaussian_grid(train, grid, loss, gamma, m=m, rng=substream(seed, "f"))
    assert str(caught.value) == want
    return np.unravel_index(flat, table.shape), table.flat[flat]


def test_fit_gaussian_grid_rejects_a_sum_that_overflows():
    """Sigmas near 1.3e154 on both axes: each axis term is finite, but
    their sum overflows at the first point of two such sigmas."""
    m, seed = 8, 0
    eps = substream(seed, "f").standard_normal((1, m, 2))
    big = float(1.3e154 / np.abs(eps).max())
    train, grid = np.zeros((1, 2)), ((0.0, 1.0), (0.5, big))
    index, _ = _raises_the_tables_first_non_finite(train, grid, LossSpec(), 0.0, m, seed)
    assert index == (0, 0, 1, 1)
    with np.errstate(over="ignore"):
        terms = [_axis_terms(train[:, i:i + 1], 0.0, big, eps[..., i], 1.0, np.empty((1, m)))
                 for i in range(2)]
        assert np.all(np.isfinite(terms)) and not np.all(np.isfinite(terms[0] + terms[1]))


def test_fit_gaussian_grid_rejects_an_overflow_at_zero_weight():
    """An overflowing sample on an axis of weight 0 gives 0 * inf, a NaN."""
    train = gen_gmm2d(TOY_MIXTURE, 20, substream(0, "toy-data"))
    loss = LossSpec(weights=(1.0, 0.0))
    index, value = _raises_the_tables_first_non_finite(train, ((0.0, 1.0), (0.5, 1e200)), loss,
                                                       TOY_GAMMA, 4, 0)
    assert index == (0, 0, 0, 1) and np.isnan(value)


SMALL_GRID = {"mu_values": (-1.4, 0.0, 1.4), "sigma_values": (0.3, 0.9, 1.5, 2.1)}


def test_toy_cross_table_structure_and_aggregate():
    result = toy_cross_table((0, 1), **SMALL_GRID, n_train=80, n_test=80, m=8)
    assert result["losses"] == ["dim1", "dim2"]
    assert [e["seed"] for e in result["per_seed"]] == [0, 1]
    for entry in result["per_seed"]:
        assert set(entry["fits"]) == {"dim1", "dim2"}
        assert set(entry["table"]) == {"dim1", "dim2"}
    # the aggregate cell is the plain mean of the per-seed cells
    for tr in ("dim1", "dim2"):
        for ta in ("dim1", "dim2"):
            vals = [e["table"][tr][ta][0] for e in result["per_seed"]]
            npt.assert_allclose(result["aggregate"][tr][ta][0], np.mean(vals),
                                rtol=1e-15)
    assert isinstance(result["diagonal_dominance"], bool)


def test_toy_cross_table_deterministic():
    a = toy_cross_table((3,), **SMALL_GRID, n_train=60, n_test=60, m=8)
    b = toy_cross_table((3,), **SMALL_GRID, n_train=60, n_test=60, m=8)
    assert a["per_seed"][0]["fits"] == b["per_seed"][0]["fits"]
    assert a["aggregate"] == b["aggregate"]
