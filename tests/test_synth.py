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
from disconet.rng import substream
from disconet.scoring import data_term, pair_term
from disconet.synth import (
    FIT_KEYS,
    TOY_GAMMA,
    TOY_LOSSES,
    TOY_M,
    TOY_MU_VALUES,
    TOY_N,
    TOY_SIGMA_VALUES,
    _grid_table,
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
