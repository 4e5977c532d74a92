import numpy as np
import numpy.testing as npt
import pytest

from disconet import (
    ContractError,
    DimensionError,
    Graph,
    NumericError,
    ParameterError,
    SINGULARITY_EPS,
    Tensor,
    grad_check,
)

STEP = 1e-6
KINK_MARGIN = 1e-4


def numeric_grad(build, x, step=STEP):
    """Central differences of a scalar-graph builder with respect to x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape if x.ndim else ())
    flat = out.reshape(-1)
    xflat = x.reshape(-1)
    for i in range(xflat.size):
        up = xflat.copy()
        up[i] += step
        down = xflat.copy()
        down[i] -= step
        flat[i] = (build(up.reshape(x.shape)) - build(down.reshape(x.shape))) / (2 * step)
    return out


def rel_err(a, n):
    a = np.asarray(a, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))))


def test_tensor_contract():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.size == 4
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        Tensor([np.inf])
    assert Tensor(3.5).item() == 3.5


def test_constant_and_value():
    g = Graph()
    a = g.constant([[1.0, 2.0]])
    assert g.value(a).shape == (1, 2)
    assert len(g) == 1
    with pytest.raises(ContractError):
        g.grad(a)


def test_matmul_shapes():
    g = Graph()
    a = g.constant(np.ones((2, 3)))
    b = g.constant(np.ones((3, 4)))
    c = g.matmul(a, b)
    npt.assert_array_equal(g.value(c).array, np.full((2, 4), 3.0))
    with pytest.raises(DimensionError):
        g.matmul(a, a)


def test_add_broadcast_row():
    g = Graph()
    a = g.constant(np.arange(6.0).reshape(2, 3))
    row = g.constant([[10.0, 20.0, 30.0]])
    s = g.add(a, row)
    npt.assert_array_equal(g.value(s).array[1], [13.0, 24.0, 35.0])
    with pytest.raises(DimensionError):
        g.add(a, g.constant(np.ones((3, 2))))


def test_relu_gradient_zero_at_zero():
    g = Graph()
    a = g.constant([[-1.0, 0.0, 2.0]])
    r = g.relu(a)
    root = g.reduce_sum(r)
    g.backward(root)
    npt.assert_array_equal(g.grad(a).array, [[0.0, 0.0, 1.0]])


def test_reduce_sum_requires_scalar_root():
    g = Graph()
    a = g.constant(np.ones((2, 2)))
    with pytest.raises(ContractError):
        g.backward(a)


def test_backward_zero_for_unreachable():
    g = Graph()
    a = g.constant(np.ones((2, 2)))
    b = g.constant(np.ones((2, 2)))
    root = g.reduce_sum(g.scale(a, 3.0))
    g.backward(root)
    npt.assert_array_equal(g.grad(b).array, np.zeros((2, 2)))
    npt.assert_array_equal(g.grad(a).array, np.full((2, 2), 3.0))


def test_repeated_backward_identical():
    g = Graph()
    a = g.constant(np.arange(4.0).reshape(2, 2) + 1.0)
    root = g.weighted_pow_norm(
        g.reshape(a, (4,)), g.constant([0.5, 1.0, 1.5, 2.0]), beta=1.3
    )
    first = g.backward(root)[a].array.copy()
    second = g.backward(root)[a].array
    npt.assert_array_equal(first, second)


def test_values_immutable_after_append():
    g = Graph()
    a = g.constant([[1.0, 2.0]])
    before = g.value(a).array.copy()
    g.relu(a)
    g.scale(a, -2.0)
    npt.assert_array_equal(g.value(a).array, before)


def test_pow_norm_validation():
    g = Graph()
    a = g.constant([1.0, 2.0])
    b = g.constant([0.0, 1.0])
    with pytest.raises(ParameterError):
        g.weighted_pow_norm(a, b, beta=2.0)
    with pytest.raises(ParameterError):
        g.weighted_pow_norm(a, b, beta=0.0)
    with pytest.raises(ParameterError):
        g.weighted_pow_norm(a, b, weights=(1.0, -1.0))
    with pytest.raises(ParameterError):
        g.weighted_pow_norm(a, b, weights=(0.0, 0.0))
    with pytest.raises(DimensionError):
        g.weighted_pow_norm(a, b, weights=(1.0, 1.0, 1.0))


def test_pow_norm_coincident_gradient_zero():
    g = Graph()
    a = g.constant([1.0, 2.0])
    b = g.constant([1.0, 2.0])
    root = g.weighted_pow_norm(a, b, beta=1.0)
    assert g.value(root).item() == 0.0
    g.backward(root)
    npt.assert_array_equal(g.grad(a).array, [0.0, 0.0])
    assert SINGULARITY_EPS == 1e-24


def test_gather_rows_bounds():
    g = Graph()
    a = g.constant(np.arange(6.0).reshape(3, 2))
    got = g.gather_rows(a, [2, 0, 2])
    npt.assert_array_equal(g.value(got).array, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    with pytest.raises(ContractError):
        g.gather_rows(a, [3])


def test_reshape_and_concat_errors():
    g = Graph()
    a = g.constant(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        g.reshape(a, (4, 2))
    b = g.constant(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        g.concat(a, b, axis=0)
    c = g.concat(a, b, axis=1)
    assert g.value(c).shape == (2, 5)


# Per-op finite-difference agreement. Inputs are resampled away from the
# relu and norm kinks so central differences see a smooth function.


def _away_from_zero(rng, shape, margin=KINK_MARGIN):
    x = rng.uniform(-1.0, 1.0, size=shape)
    while np.any(np.abs(x) <= margin):
        x = rng.uniform(-1.0, 1.0, size=shape)
    return x


def test_matmul_grad(rng):
    for _ in range(5):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))

        def build_a(av):
            g = Graph()
            return g.value(g.reduce_sum(g.matmul(g.constant(av), g.constant(b)))).item()

        def build_b(bv):
            g = Graph()
            return g.value(g.reduce_sum(g.matmul(g.constant(a), g.constant(bv)))).item()

        g = Graph()
        na, nb = g.constant(a), g.constant(b)
        g.backward(g.reduce_sum(g.matmul(na, nb)))
        assert rel_err(g.grad(na).array, numeric_grad(build_a, a)) < 1e-5
        assert rel_err(g.grad(nb).array, numeric_grad(build_b, b)) < 1e-5


def test_add_broadcast_grad(rng):
    a = rng.normal(size=(4, 3))
    row = rng.normal(size=(1, 3))

    def build(rv):
        g = Graph()
        return g.value(
            g.reduce_sum(g.relu(g.add(g.constant(a), g.constant(rv))))
        ).item()

    g = Graph()
    na, nr = g.constant(a), g.constant(row)
    g.backward(g.reduce_sum(g.relu(g.add(na, nr))))
    assert rel_err(g.grad(nr).array, numeric_grad(build, row)) < 1e-5


def test_relu_grad_away_from_kink(rng):
    x = _away_from_zero(rng, (3, 3))

    def build(xv):
        g = Graph()
        return g.value(g.reduce_sum(g.relu(g.constant(xv)))).item()

    g = Graph()
    n = g.constant(x)
    g.backward(g.reduce_sum(g.relu(n)))
    assert rel_err(g.grad(n).array, numeric_grad(build, x)) < 1e-5


def test_concat_scale_reshape_grad(rng):
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 2))

    def build(av):
        g = Graph()
        cat = g.concat(g.constant(av), g.constant(b), axis=1)
        return g.value(g.reduce_sum(g.scale(g.reshape(cat, (10,)), -1.75))).item()

    g = Graph()
    na = g.constant(a)
    cat = g.concat(na, g.constant(b), axis=1)
    g.backward(g.reduce_sum(g.scale(g.reshape(cat, (10,)), -1.75)))
    assert rel_err(g.grad(na).array, numeric_grad(build, a)) < 1e-5


def test_gather_rows_grad(rng):
    a = rng.normal(size=(4, 3))
    idx = [0, 2, 2, 3, 0]

    def build(av):
        g = Graph()
        return g.value(g.reduce_sum(g.gather_rows(g.constant(av), idx))).item()

    g = Graph()
    na = g.constant(a)
    g.backward(g.reduce_sum(g.gather_rows(na, idx)))
    assert rel_err(g.grad(na).array, numeric_grad(build, a)) < 1e-5


def test_pow_norm_grad(rng):
    for beta in (0.5, 1.0, 1.5):
        a = rng.normal(size=4)
        b = a + _away_from_zero(rng, 4, margin=0.05)
        w = rng.uniform(0.2, 2.0, size=4)

        def build_a(av):
            g = Graph()
            return g.value(
                g.weighted_pow_norm(g.constant(av), g.constant(b), weights=w, beta=beta)
            ).item()

        g = Graph()
        na, nb = g.constant(a), g.constant(b)
        root = g.weighted_pow_norm(na, nb, weights=w, beta=beta)
        g.backward(root)
        assert rel_err(g.grad(na).array, numeric_grad(build_a, a)) < 1e-5
        # antisymmetric in its two arguments
        npt.assert_allclose(g.grad(nb).array, -g.grad(na).array, rtol=0, atol=0)


def test_row_pow_norms_matches_vector_op(rng):
    a = rng.normal(size=(5, 3))
    b = a + _away_from_zero(rng, (5, 3), margin=0.05)
    w = rng.uniform(0.2, 2.0, size=3)
    for beta in (0.5, 1.0, 1.5):
        g = Graph()
        na, nb = g.constant(a), g.constant(b)
        rows = g.row_pow_norms(na, nb, weights=w, beta=beta)
        g.backward(g.reduce_sum(rows))
        ga = g.grad(na).array
        expect_vals = []
        expect_grad = np.zeros_like(a)
        for i in range(a.shape[0]):
            g2 = Graph()
            va, vb = g2.constant(a[i]), g2.constant(b[i])
            root = g2.weighted_pow_norm(va, vb, weights=w, beta=beta)
            g2.backward(root)
            expect_vals.append(g2.value(root).item())
            expect_grad[i] = g2.grad(va).array
        # summation order differs between the row op and the vector op,
        # so agreement is to rounding, not bitwise
        npt.assert_allclose(g.value(rows).array, expect_vals, rtol=1e-12)
        npt.assert_allclose(ga, expect_grad, rtol=1e-12, atol=1e-15)


def test_determinism_bitwise(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))

    def run():
        g = Graph()
        nx, nw = g.constant(x), g.constant(w)
        root = g.reduce_sum(g.relu(g.matmul(nx, nw)))
        g.backward(root)
        return g.value(root).item(), g.grad(nw).array.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    npt.assert_array_equal(g1, g2)


def test_grad_check_quadratic():
    def f(p):
        return float(p @ p), 2.0 * p

    assert grad_check(f, np.array([1.0, -2.0, 3.0])) < 1e-9

    def f_bad(p):
        return float(p @ p), 2.0 * p + 0.01

    assert grad_check(f_bad, np.array([1.0, -2.0, 3.0])) > 1e-3


def test_grad_check_validation():
    def f(p):
        return float(p.sum()), np.ones(p.size + 1)

    with pytest.raises(ContractError):
        grad_check(f, np.ones(3))

    def f_nan(p):
        if np.any(p != 1.0):
            return np.nan, np.zeros(p.size)
        return 0.0, np.zeros(p.size)

    with pytest.raises(NumericError):
        grad_check(f_nan, np.ones(2))
