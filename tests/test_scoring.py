import numpy as np
import numpy.testing as npt
import pytest

from disconet import (
    ContractError,
    DimensionError,
    DiscreteDistribution,
    EstimatorError,
    Graph,
    LOSS_DIM1,
    LOSS_DIM2,
    LossSpec,
    ParameterError,
    delta,
    div_exact,
    divergence_discrete,
    energy_score_sample,
)
from disconet.scoring import (SINGULARITY_EPS, _pair_shifts, _slope, data_grad, delta_rows,
                              pair_grad, pair_sq_norms, pair_term, pairwise_delta, sorted_pairs)
from disconet.synth import FIT_KEYS, eval_gaussian


def test_loss_spec_validation():
    with pytest.raises(ParameterError):
        LossSpec(beta=2.0)
    with pytest.raises(ParameterError):
        LossSpec(beta=0.0)
    with pytest.raises(ParameterError):
        LossSpec(weights=(1.0, -0.5))
    with pytest.raises(ParameterError):
        LossSpec(weights=(0.0, 0.0))
    spec = LossSpec(beta=1.5, weights=(2.0, 3.0))
    npt.assert_array_equal(spec.weight_vector(2), [2.0, 3.0])
    npt.assert_array_equal(LossSpec().weight_vector(3), [1.0, 1.0, 1.0])
    with pytest.raises(DimensionError):
        spec.weight_vector(3)


def test_delta_hand_values():
    # sqrt(10*1 + 0.1*1) = sqrt(10.1)
    assert delta(LOSS_DIM1, (0.0, 0.0), (1.0, 1.0)) == pytest.approx(
        3.1780497164141406, abs=1e-15
    )
    # weights swapped, same symmetric displacement, same value
    assert delta(LOSS_DIM2, (0.0, 0.0), (1.0, 1.0)) == pytest.approx(
        3.1780497164141406, abs=1e-15
    )
    # sqrt(10*4 + 0.1*9) = sqrt(40.9)
    assert delta(LOSS_DIM1, (0.0, 0.0), (2.0, 3.0)) == pytest.approx(
        np.sqrt(40.9), abs=1e-15
    )
    assert delta(LossSpec(), (1.0,), (4.0,)) == 3.0


def test_delta_symmetry_nonnegativity_scaling(rng):
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        beta = float(rng.uniform(0.1, 1.9))
        w = tuple(rng.uniform(0.1, 3.0, size=dim))
        spec = LossSpec(beta=beta, weights=w)
        y = rng.normal(size=dim)
        y2 = rng.normal(size=dim)
        d = delta(spec, y, y2)
        assert d >= 0.0
        assert delta(spec, y2, y) == d
        assert delta(spec, y, y) == 0.0
        c = float(rng.uniform(0.1, 4.0))
        npt.assert_allclose(
            delta(spec, c * y, c * y2), abs(c) ** beta * d, rtol=1e-12
        )


def test_delta_rows_and_pairwise():
    spec = LossSpec()
    a = np.array([[0.0], [1.0]])
    b = np.array([[3.0], [5.0]])
    npt.assert_array_equal(delta_rows(spec, a, b), [3.0, 4.0])
    outs = np.array([[0.0], [1.0], [2.0]])
    pairs = pairwise_delta(spec, outs)
    npt.assert_array_equal(pairs, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_sorted_pair_selection():
    """The sorted pair form is chosen from the candidates' trailing
    dimension and beta alone: one output and beta exactly 1."""
    assert sorted_pairs(1, 1.0)
    assert not sorted_pairs(2, 1.0)
    assert not sorted_pairs(42, 1.0)
    assert not sorted_pairs(1, 0.5)
    assert not sorted_pairs(1, np.nextafter(1.0, 2.0))


def test_energy_score_hand_values():
    # candidates {1, 3} against 0: data term 2, pair term 2/2 = 1
    assert energy_score_sample([[1.0], [3.0]], [0.0]) == 1.0
    # identical candidates carry no diversity discount
    assert energy_score_sample([[0.0], [0.0]], [5.0]) == 5.0
    with pytest.raises(EstimatorError):
        energy_score_sample([[1.0]], [0.0])


def test_energy_score_mc_matches_discrete_divergence(rng):
    """Mean sampled score over y ~ P, candidates ~ Q^K approaches the
    closed-form divergence plus half the data self-distance."""
    support_q = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]])
    probs_q = np.array([0.5, 0.25, 0.25])
    support_p = np.array([[0.5, 0.5], [1.5, 1.0]])
    probs_p = np.array([0.6, 0.4])
    q = DiscreteDistribution(support_q, probs_q)
    p = DiscreteDistribution(support_p, probs_p)
    spec = LossSpec()
    exact = divergence_discrete(q, p, spec) + 0.5 * div_exact(p, p, spec)
    k = 4
    trials = 4000
    vals = np.empty(trials)
    for t in range(trials):
        y = support_p[rng.choice(2, p=probs_p)]
        cands = support_q[rng.choice(3, size=k, p=probs_q)]
        vals[t] = energy_score_sample(cands, y, spec)
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - exact) < 3 * se


def test_discrete_distribution_validation():
    with pytest.raises(ContractError):
        DiscreteDistribution([[0.0], [0.0]], [0.5, 0.5])  # duplicate support
    with pytest.raises(ContractError):
        DiscreteDistribution([[0.0], [1.0]], [0.6, 0.6])  # probs sum 1.2
    with pytest.raises(ContractError):
        DiscreteDistribution([[0.0], [1.0]], [1.2, -0.2])
    d = DiscreteDistribution([[0.0], [1.0]], [0.25, 0.75])
    with pytest.raises(ValueError):
        d.probabilities[0] = 1.0


def test_div_exact_hand_value():
    # uniform on {0, 1} against itself: E|q - q'| = 1/2
    q = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
    assert div_exact(q, q, LossSpec()) == 0.5
    # against point mass at 0: 0.5*0 + 0.5*1
    p = DiscreteDistribution([[0.0]], [1.0])
    assert div_exact(p, q, LossSpec()) == 0.5


def test_divergence_hand_value():
    # div(q, p) = DIV(P,Q) - DIV(Q,Q)/2 - DIV(P,P)/2 = 0.5 - 0.25 - 0
    q = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
    p = DiscreteDistribution([[0.0]], [1.0])
    assert divergence_discrete(q, p, LossSpec()) == 0.25


def test_divergence_self_exactly_zero(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        support = rng.normal(size=(n, 2))
        probs = rng.uniform(0.1, 1.0, size=n)
        probs = probs / probs.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        d = DiscreteDistribution(support, probs)
        assert divergence_discrete(d, d, LossSpec()) == 0.0


def test_strict_propriety(rng):
    """Distinct distributions on a shared support separate from zero."""
    spec = LossSpec()
    for _ in range(200):
        n = int(rng.integers(2, 5))
        support = rng.normal(size=(n, 2)) * 2.0
        pa = rng.uniform(0.05, 1.0, size=n)
        pa /= pa.sum()
        pb = rng.uniform(0.05, 1.0, size=n)
        pb /= pb.sum()
        if np.abs(pa - pb).sum() < 0.05:
            continue
        div = divergence_discrete(
            DiscreteDistribution(support, pa), DiscreteDistribution(support, pb), spec
        )
        assert div > 1e-10


# Loop oracle for every loss entry point. The entry points share one
# vectorized kernel; the oracle writes sum_i w_i d_i**2 out term by term.
# The tolerance is fixed from float64 (eps 2.2e-16) with a wide margin for
# the few dozen roundings of sums over at most a few hundred terms of order
# one; it is not tuned to the observed error.
ORACLE_TOL = {"rtol": 1e-12, "atol": 1e-12}


def _loop_delta(w, beta, a, b):
    s = 0.0
    for i in range(len(w)):
        s += w[i] * (a[i] - b[i]) ** 2
    return s ** (beta / 2.0)


def _loop_delta_grad(w, beta, a, b):
    """Gradient of _loop_delta in its first argument."""
    s = 0.0
    for i in range(len(w)):
        s += w[i] * (a[i] - b[i]) ** 2
    return [beta * s ** (beta / 2.0 - 1.0) * w[i] * (a[i] - b[i]) for i in range(len(w))]


def _loop_energy(w, beta, y, outs, gamma):
    k = len(outs)
    data = sum(_loop_delta(w, beta, y, g) for g in outs) / k
    pairs = sum(
        _loop_delta(w, beta, outs[i], outs[j]) for i in range(k) for j in range(k) if i != j
    )
    return data - gamma * pairs / (k * (k - 1))


def _oracle_delta(rng, dim, spec, w):
    a, b = rng.normal(size=(2, dim))
    return delta(spec, a, b), _loop_delta(w, spec.beta, a, b)


def _oracle_delta_rows(rng, dim, spec, w):
    a, b = rng.normal(size=(2, 5, dim))
    return delta_rows(spec, a, b), [_loop_delta(w, spec.beta, ai, bi) for ai, bi in zip(a, b)]


def _oracle_pairwise_delta(rng, dim, spec, w):
    o = rng.normal(size=(4, dim))
    return pairwise_delta(spec, o), [[_loop_delta(w, spec.beta, oi, oj) for oj in o] for oi in o]


def _oracle_div_exact(rng, dim, spec, w):
    p = DiscreteDistribution(rng.normal(size=(3, dim)), [0.5, 0.3, 0.2])
    q = DiscreteDistribution(rng.normal(size=(2, dim)), [0.25, 0.75])
    want = sum(
        pi * qj * _loop_delta(w, spec.beta, yi, gj)
        for yi, pi in zip(p.support, p.probabilities)
        for gj, qj in zip(q.support, q.probabilities)
    )
    return div_exact(p, q, spec), want


def _oracle_weighted_pow_norm(rng, dim, spec, w):
    a, b = rng.normal(size=(2, dim))
    g = Graph()
    na, nb = g.constant(a), g.constant(b)
    root = g.weighted_pow_norm(na, nb, weights=spec.weights, beta=spec.beta)
    g.backward(root)
    got = [g.value(root).item(), *g.grad(na).array, *g.grad(nb).array]
    grad = _loop_delta_grad(w, spec.beta, a, b)
    return got, [_loop_delta(w, spec.beta, a, b), *grad, *(-v for v in grad)]


def _oracle_row_pow_norms(rng, dim, spec, w):
    a, b = rng.normal(size=(2, 5, dim))
    g = Graph()
    na, nb = g.constant(a), g.constant(b)
    rows = g.row_pow_norms(na, nb, weights=spec.weights, beta=spec.beta)
    g.backward(g.reduce_sum(rows))
    got = np.concatenate([g.value(rows).array, g.grad(na).array.ravel(), g.grad(nb).array.ravel()])
    grad = np.array([_loop_delta_grad(w, spec.beta, ai, bi) for ai, bi in zip(a, b)])
    vals = [_loop_delta(w, spec.beta, ai, bi) for ai, bi in zip(a, b)]
    return got, np.concatenate([vals, grad.ravel(), -grad.ravel()])


def _oracle_energy_score(rng, dim, spec, w):
    y, outs = rng.normal(size=dim), rng.normal(size=(4, dim))
    return energy_score_sample(outs, y, spec), _loop_energy(w, spec.beta, y, outs, 0.5)


def _oracle_toy_point_values(rng, dim, spec, w):
    # the toy model is 2-D, so this case draws its own two weights
    w = rng.uniform(0.1, 3.0, size=2)
    loss = LossSpec(beta=spec.beta, weights=tuple(w))
    y = rng.normal(size=(3, 2))
    mean, stddev = rng.normal(size=2), rng.uniform(0.2, 2.0, size=2)
    seed = int(rng.integers(2**31))
    fit = dict(zip(FIT_KEYS, [*mean, *stddev]))
    got = eval_gaussian(fit, y, loss, gamma=0.5, m=4, rng=np.random.default_rng(seed))
    q = mean + stddev * np.random.default_rng(seed).standard_normal((3, 4, 2))
    vals = [_loop_energy(w, spec.beta, yn, qn, 0.5) for yn, qn in zip(y, q)]
    return got, [np.mean(vals), np.std(vals, ddof=1) / np.sqrt(len(vals))]


ORACLE_CASES = {
    "delta": _oracle_delta,
    "delta_rows": _oracle_delta_rows,
    "pairwise_delta": _oracle_pairwise_delta,
    "div_exact": _oracle_div_exact,
    "Graph.weighted_pow_norm": _oracle_weighted_pow_norm,
    "Graph.row_pow_norms": _oracle_row_pow_norms,
    "energy_score_sample": _oracle_energy_score,
    "toy_point_values": _oracle_toy_point_values,
}


@pytest.mark.parametrize("entry", sorted(ORACLE_CASES))
def test_loss_entry_points_match_loop_oracle(entry):
    rng = np.random.default_rng(20160606)
    for _ in range(25):
        dim = int(rng.integers(1, 5))
        weights = None if rng.random() < 0.25 else tuple(rng.uniform(0.1, 3.0, size=dim))
        spec = LossSpec(beta=float(rng.uniform(0.2, 1.8)), weights=weights)
        w = [1.0] * dim if weights is None else list(weights)
        got, want = ORACLE_CASES[entry](rng, dim, spec, w)
        npt.assert_allclose(got, want, **ORACLE_TOL)


_PAIR_KS = (1, 2, 3, 5, 7, 30, 32)


def _broadcast_sq_norms(g, w):
    """The pair kernel's oracle: every ordered pair's difference from one
    (..., K, K, y_dim) broadcast, and its squared norms from one gemv per
    K-row slab."""
    diff = g[..., :, None, :] - g[..., None, :, :]
    return (diff * diff) @ w


@pytest.mark.parametrize("k", _PAIR_KS)
def test_pair_sq_norms_symmetric_and_blockwise(k):
    """The pair kernel computes each unordered pair once: its matrix is
    bitwise symmetric with a zero diagonal, and a frame's norms are the same
    bits in blocks of 1, 16 and 17 frames and all 40 at once."""
    rng = np.random.default_rng(k)
    g = rng.normal(size=(40, k, 42)) * rng.uniform(0.1, 10.0, size=(40, 1, 1))
    g[3] = g[3, :1]  # tied candidates
    w = rng.uniform(0.1, 3.0, size=42)
    s = pair_sq_norms(g, w)
    assert s.shape == (40, k, k)
    npt.assert_array_equal(s, np.swapaxes(s, -1, -2))
    npt.assert_array_equal(np.diagonal(s, axis1=-2, axis2=-1), 0.0)
    assert not s[3].any()
    for block in (1, 16, 17):
        out = np.empty((block, k, k))
        for start in range(0, 40, block):
            got = pair_sq_norms(g[start:start + block], w, out[:40 - start])
            npt.assert_array_equal(got, s[start:start + block])
    npt.assert_allclose(s, _broadcast_sq_norms(g, w), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [16, 32])
def test_pair_sq_norms_is_the_broadcast_at_k_multiple_of_4(k):
    """At K a multiple of 4 every row of a K-row slab takes the same BLAS
    kernel, so each pair's norm is bitwise the broadcast form's: eval's K =
    32 and training's K = 16 metrics do not move."""
    rng = np.random.default_rng(100 + k)
    for y_dim in (2, 3, 42):
        g = rng.normal(size=(9, k, y_dim))
        w = rng.uniform(0.1, 3.0, size=y_dim)
        npt.assert_array_equal(pair_sq_norms(g, w), _broadcast_sq_norms(g, w))
        npt.assert_array_equal(pair_sq_norms(g[0], w), _broadcast_sq_norms(g[0], w))


@pytest.mark.parametrize("k", _PAIR_KS)
def test_pairwise_delta_matches_per_pair_delta(k):
    rng = np.random.default_rng(200 + k)
    for y_dim, beta in ((1, 0.5), (3, 1.0), (42, 1.5)):
        spec = LossSpec(beta=beta, weights=tuple(rng.uniform(0.1, 3.0, size=y_dim)))
        o = rng.normal(size=(k, y_dim))
        want = [[delta(spec, a, b) for b in o] for a in o]
        npt.assert_allclose(pairwise_delta(spec, o), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5, 6, 7, 30])
def test_pair_grad_matches_per_pair_loop(k):
    """The pair gradient, taken shift by shift from the kernel's
    differences, agrees at 1e-12 with the per-pair loop
    2 sum_b d/dg_a Delta(g_a, g_b) / (K (K-1)) at odd K, at K = 2 mod 4 and
    at K = 2, where the shift K/2 holds each pair twice."""
    rng = np.random.default_rng(300 + k)
    for y_dim, beta in ((2, 0.5), (3, 1.0), (5, 1.5)):
        w = rng.uniform(0.1, 3.0, size=y_dim)
        g = rng.normal(size=(3, k, y_dim))
        value, grad = pair_grad(g, w, beta)
        npt.assert_array_equal(value, pair_term(g, w, beta))
        want = [[np.sum([_loop_delta_grad(w, beta, ga, gb) for b, gb in enumerate(gn) if b != a], axis=0)
                 * 2.0 / (k * (k - 1)) for a, ga in enumerate(gn)] for gn in g]
        npt.assert_allclose(grad, want, rtol=1e-12, atol=1e-12)


def _out_of_place_grads(y, g, w, beta):
    """The data and pair gradients as fresh arrays, each scale a new product:
    the oracle of the in-place scaling in ``data_grad`` and ``pair_grad``."""
    d = g - y[..., None, :]
    slope = _slope((d * d) @ w, beta) / g.shape[-2]
    data = slope[..., None] * (w * d)
    k = g.shape[-2]
    if k < 2:
        return data, None
    if sorted_pairs(g.shape[-1], beta):
        g1, w1 = g[..., 0], w[0]
        t = np.sqrt(SINGULARITY_EPS / w1)
        below = (g1[..., None, :] < (g1 - t)[..., :, None]).sum(axis=-1)
        above = (g1[..., None, :] > (g1 + t)[..., :, None]).sum(axis=-1)
        return data, ((2.0 * np.sqrt(w1) / (k * (k - 1))) * (below - above))[..., None]
    s, grad = np.empty(g.shape[:-1] + (k,)), np.zeros(g.shape)
    for t, m, d, v in _pair_shifts(g, w, s):
        c = d[..., :m, :] * _slope(v[..., :m], beta)[..., None]
        grad[..., :m, :] += c
        grad[..., t:, :] -= c[..., :k - t, :]
        grad[..., :m + t - k, :] -= c[..., k - t:, :]
    return data, (2.0 / (k * (k - 1))) * (w * grad)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("y_dim", [1, 2, 42])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 32])
def test_gradient_kernels_scale_in_place_bitwise(k, y_dim, beta):
    """``data_grad`` and ``pair_grad`` scale their gradients in place, with
    the products of the out-of-place formulas in the same order: the same
    float64 bits, under weights not all 1, with a candidate on its truth and
    two coincident candidates (slope 0)."""
    rng = np.random.default_rng(1000 * k + 10 * y_dim + int(2 * beta))
    w = rng.uniform(0.25, 4.0, size=y_dim)
    y, g = rng.normal(size=(7, y_dim)), rng.normal(size=(7, k, y_dim))
    g[0, -1] = g[0, 0]
    g[1, 0] = y[1]
    want_data, want_pair = _out_of_place_grads(y, g, w, beta)
    _, got = data_grad(y, g, w, beta)
    assert got.view(np.uint64).tolist() == want_data.view(np.uint64).tolist()
    if k > 1:
        _, got = pair_grad(g, w, beta)
        assert got.view(np.uint64).tolist() == want_pair.view(np.uint64).tolist()
