import numpy as np
import numpy.testing as npt
import pytest

from disconet import (
    ContractError,
    DimensionError,
    DiscreteDistribution,
    EstimatorError,
    Graph,
    LossSpec,
    NetConfig,
    NetworkParams,
    ObjectiveConfig,
    ParameterError,
    SINGULARITY_EPS,
    bind_params,
    disco_objective,
    disco_objective_node,
    div_exact,
    div_pq_hat,
    div_qq_hat,
    energy_score_sample,
    grad_check,
    grad_flat,
    init_params,
    objective_terms,
    predict_rows,
    substream,
)
import disconet.objective as objective_module
from disconet.network import layer_walk
from disconet.objective import _batch_arrays, candidate_pair_indices
from disconet.scoring import pair_grad, pair_term, pairwise_delta


def test_objective_config_validation():
    with pytest.raises(ParameterError):
        ObjectiveConfig(gamma=-0.1)
    with pytest.raises(ParameterError):
        ObjectiveConfig(gamma=1.5)
    with pytest.raises(ParameterError):
        ObjectiveConfig(num_candidates=0)
    with pytest.raises(EstimatorError):
        ObjectiveConfig(gamma=0.5, num_candidates=1)
    # a point predictor trained on plain loss is fine with one candidate
    ObjectiveConfig(gamma=0.0, num_candidates=1)


def test_batch_arrays_both_forms():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([[5.0], [6.0]])
    xa, ya = _batch_arrays((x, y))
    npt.assert_array_equal(xa, x)
    npt.assert_array_equal(ya, y)
    # nested lists convert like arrays
    xb, yb = _batch_arrays((x.tolist(), y.tolist()))
    npt.assert_array_equal(xb, x)
    npt.assert_array_equal(yb, y)
    with pytest.raises(ContractError):
        _batch_arrays((np.zeros((0, 2)), np.zeros((0, 1))))
    with pytest.raises(ContractError):
        _batch_arrays((x, y[:1]))
    with pytest.raises(ContractError):
        _batch_arrays((x[0], y[0]))
    # a list of (x, y) pairs is not a batch
    with pytest.raises(ContractError):
        _batch_arrays([(x[0], y[0]), (x[1], y[1])])


def test_div_pq_hand_value():
    # Manually calculated: example 1 mean(|1-0|, |3-0|) = 2,
    # example 2 mean(|4-5|, |8-5|) = 2, overall 2.
    outs = [[[1.0], [3.0]], [[4.0], [8.0]]]
    assert div_pq_hat([[0.0], [5.0]], outs) == 2.0


def test_div_qq_hand_value():
    # Manually calculated: candidates {0, 1, 2}, ordered distinct pairs
    # sum to 2*(1+2+1) = 8, divided by K(K-1) = 6.
    assert div_qq_hat([[[0.0], [1.0], [2.0]]]) == pytest.approx(4.0 / 3.0, abs=1e-15)
    with pytest.raises(EstimatorError):
        div_qq_hat([[[1.0]]])


def test_mismatched_sets_rejected():
    y = np.zeros((2, 1))
    # one candidate set for two ground truths
    with pytest.raises(ContractError):
        div_pq_hat(y, [[[1.0], [2.0]]])
    # one input's (K, y_dim) matrix where (N, K, y_dim) is due
    with pytest.raises(ContractError):
        div_pq_hat(y, [[1.0], [2.0]])
    with pytest.raises(ContractError):
        div_qq_hat(np.zeros((0, 2, 1)))
    with pytest.raises(DimensionError):
        div_pq_hat(y, np.zeros((2, 2, 3)))


def test_gamma_zero_objective_is_data_term_only():
    y = np.array([[0.0]])
    outs = [[[1.0], [3.0]]]
    cfg = ObjectiveConfig(gamma=0.0, num_candidates=2)
    assert disco_objective(y, outs, cfg) == div_pq_hat(y, outs)


def test_gamma_half_matches_energy_score_bitwise(rng):
    """Per example, the gamma = 1/2 objective IS the sampled energy score:
    same terms, same summation order, identical floats."""
    for _ in range(100):
        k = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.3, 1.7))
        w = tuple(rng.uniform(0.2, 3.0, size=dim))
        loss = LossSpec(beta=beta, weights=w)
        y = rng.normal(size=(1, dim))
        cands = rng.normal(size=(k, dim))
        obj = disco_objective(
            y, cands[None], ObjectiveConfig(gamma=0.5, num_candidates=k, loss=loss)
        )
        assert obj == energy_score_sample(cands, y[0], loss)


def test_estimators_unbiased_under_candidate_draws(rng):
    """div_qq_hat over repeated draws from a discrete model approaches the
    closed-form pair expectation."""
    support = np.array([[0.0], [1.0], [3.0]])
    probs = np.array([0.5, 0.3, 0.2])
    q = DiscreteDistribution(support, probs)
    exact = div_exact(q, q, LossSpec())
    k = 3
    trials = 4000
    vals = np.empty(trials)
    for t in range(trials):
        cands = support[rng.choice(3, size=k, p=probs)]
        vals[t] = div_qq_hat(cands[None])
    se = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - exact) < 3 * se


def test_candidate_pair_indices():
    idx1, idx2 = candidate_pair_indices(2, 2)
    npt.assert_array_equal(idx1, [0, 1, 2, 3])
    npt.assert_array_equal(idx2, [1, 0, 3, 2])
    idx1, idx2 = candidate_pair_indices(3, 1)
    assert len(idx1) == 6
    assert np.all(idx1 != idx2)
    with pytest.raises(EstimatorError):
        candidate_pair_indices(1, 4)


NET = NetConfig(x_dim=2, y_dim=2, z_dim=3, encoder_widths=(4,), decoder_widths=(4,))


def _fixture(seed, n=3, k=3):
    rng = np.random.default_rng(seed)
    params = init_params(NET, seed=seed)
    x = rng.normal(size=(n, NET.x_dim))
    y = rng.normal(size=(n, NET.y_dim))
    z = rng.uniform(-1.0, 1.0, size=(n, k, NET.z_dim))
    return params, x, y, z


def _outputs_from_noises(params, x, z):
    n, k, _ = z.shape
    outs = np.empty((n, k, params.config.y_dim))
    for i in range(n):
        outs[i] = predict_rows(params, np.tile(x[i], (k, 1)), z[i])
    return outs


def test_graph_objective_matches_plain_evaluation():
    params, x, y, z = _fixture(seed=13)
    outs = _outputs_from_noises(params, x, z)
    for gamma in (0.0, 0.25, 0.5, 1.0):
        cfg = ObjectiveConfig(gamma=gamma, num_candidates=3)
        g = Graph()
        root = disco_objective_node(g, params, (x, y), z, cfg)
        plain = disco_objective(y, outs, cfg)
        npt.assert_allclose(g.value(root).item(), plain, rtol=1e-12)


def test_graph_objective_contract_errors():
    params, x, y, z = _fixture(seed=13)
    cfg = ObjectiveConfig(gamma=0.5, num_candidates=3)
    g = Graph()
    with pytest.raises(ContractError):
        disco_objective_node(g, params, (x, y), None, cfg)
    with pytest.raises(DimensionError):
        disco_objective_node(Graph(), params, (x, y), z[:, :2, :], cfg)
    with pytest.raises(DimensionError):
        disco_objective_node(Graph(), params, (x[:, :1], y), z, cfg)


def test_graph_objective_gradient_check():
    params, x, y, z = _fixture(seed=29)
    for gamma, beta in ((0.0, 1.0), (0.5, 0.5), (0.5, 1.5), (1.0, 1.0)):
        cfg = ObjectiveConfig(gamma=gamma, num_candidates=3, loss=LossSpec(beta=beta))

        def f(flat):
            from disconet import NetworkParams

            p = NetworkParams.from_flat(NET, flat)
            g = Graph()
            bound = bind_params(g, p)
            root = disco_objective_node(g, bound, (x, y), z, cfg)
            g.backward(root)
            from disconet import grad_flat

            return g.value(root).item(), grad_flat(g, bound)

        err = grad_check(f, params.to_flat())
        assert err < 1e-5, (gamma, beta, err)


def _one_output_worst(seed, fault=None):
    """Criterion 1's net with one output (targets y[:, :1]), its worst
    grad_check error over criterion 1's gamma and beta grid."""
    n, k = 4, 3
    rng = substream(0, "acc1-data")
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = rng.uniform(-1.0, 1.0, size=(n, 2))[:, :1]
    z = rng.uniform(-1.0, 1.0, size=(n, k, 4))
    net = NetConfig(x_dim=2, y_dim=1, z_dim=4, encoder_widths=(), decoder_widths=(6,))
    params = init_params(net, seed=seed)
    worst = 0.0
    for gamma in (0.0, 0.25, 0.5):
        for beta in (0.5, 1.0, 1.5):
            cfg = ObjectiveConfig(gamma=gamma, num_candidates=k, loss=LossSpec(beta=beta))

            def f(flat):
                _, _, value, grad = objective_terms(NetworkParams.from_flat(net, flat), x, y, z, cfg)
                return value, grad + (1e-3 if fault == "offset" else 0.0)

            worst = max(worst, grad_check(f, params.to_flat()))
    return worst


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_grad_check_exact_zero_slopes(seed, monkeypatch):
    """At these init seeds some slopes are exactly zero at gamma 0.5, beta 1
    while their central differences read one ulp of f over 2 steps; those
    coordinates are measured again with a larger step, and a wrong gradient
    still fails."""
    assert _one_output_worst(seed) < 1e-4
    assert _one_output_worst(seed, fault="offset") > 1e-2
    exact = objective_module.pair_grad

    def flipped(g, w, beta):
        value, grad = exact(g, w, beta)
        return value, -grad

    monkeypatch.setattr(objective_module, "pair_grad", flipped)
    assert _one_output_worst(seed) > 1e-2


def test_grad_check_measures_roundoff_slopes_again():
    """(0.7 + p) - p has slope 0, yet its central difference at p = 1.3 and
    the default step reads a few ulps of f over two steps. That coordinate
    is measured again with a larger step, which agrees with the slope 0 and
    not with a claimed 1e-11."""
    def f(p, slope=0.0):
        return (0.7 + p[0]) - p[0], np.array([slope])

    assert objective_module.grad_check_detail(f, [1.3]) == (0.0, 1)
    err, again = objective_module.grad_check_detail(lambda p: f(p, 1e-11), [1.3])
    assert again == 1 and err > 1e-4


def test_noise_disabled_objective_ignores_noises():
    cfg_net = NetConfig(x_dim=2, y_dim=2, z_dim=3, encoder_widths=(4,),
                        decoder_widths=(4,), noise_enabled=False)
    params = init_params(cfg_net, seed=1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2))
    y = rng.normal(size=(2, 2))
    cfg = ObjectiveConfig(gamma=0.0, num_candidates=1)
    g1 = Graph()
    r1 = disco_objective_node(g1, params, (x, y), None, cfg)
    g2 = Graph()
    r2 = disco_objective_node(g2, params, (x, y), np.zeros((2, 1, 3)), cfg)
    assert g1.value(r1).item() == g2.value(r2).item()


def _graph_value_grad(params, x, y, z, cfg):
    g = Graph()
    bound = bind_params(g, params)
    root = disco_objective_node(g, bound, (x, y), z, cfg)
    g.backward(root)
    return g.value(root).item(), grad_flat(g, bound)


ORACLE_CASES = [
    (dict(gamma=gamma, beta=beta), {})
    for gamma in (0.0, 0.25, 0.5)
    for beta in (0.5, 1.0, 1.5)
] + [
    (dict(gamma=0.5, weights=(0.3, 2.5)), {}),
    (dict(gamma=0.5), dict(encoder_widths=())),
    (dict(gamma=0.5), dict(noise_enabled=False)),
    (dict(gamma=0.5, n=1), {}),
    (dict(gamma=0.0, k=1), {}),
    (dict(gamma=0.5), dict(decoder_widths=())),
    (dict(gamma=0.5), dict(encoder_widths=(), noise_enabled=False)),
    # one output: beta = 1 takes the sorted pair form, beta = 0.5 the broadcast
    (dict(gamma=0.25, beta=1.0), dict(y_dim=1)),
    (dict(gamma=0.5, beta=1.0), dict(y_dim=1)),
    (dict(gamma=0.5, weights=(2.7,)), dict(y_dim=1)),
    (dict(gamma=0.5, beta=0.5), dict(y_dim=1)),
    (dict(gamma=0.5), dict(y_dim=1, noise_enabled=False)),
    # two encoder layers: the walk back runs on n rows on both sides of one
    (dict(gamma=0.5), dict(encoder_widths=(4, 3))),
    (dict(gamma=0.5), dict(encoder_widths=(4, 3), noise_enabled=False)),
]
ORACLE_IDS = [f"gamma{c['gamma']}-beta{c['beta']}" for c, _ in ORACLE_CASES[:9]] + [
    "weights", "no-encoder", "noise-disabled", "batch-1", "k1-gamma0",
    "no-decoder", "no-encoder-noise-disabled", "y1-gamma0.25-beta1.0",
    "y1-gamma0.5-beta1.0", "y1-weights", "y1-beta0.5", "y1-noise-disabled",
    "two-encoder", "two-encoder-noise-disabled",
]


@pytest.mark.parametrize("case, net_kw", ORACLE_CASES, ids=ORACLE_IDS)
def test_objective_terms_match_graph_oracle(case, net_kw):
    """The fused objective, its two terms and its gradient agree with the
    graph form and the sampled estimators. The tolerance, rtol = atol =
    1e-12, was fixed from float64 before comparing. Only the fused side
    sums the loss terms per example first, runs the encoder once per input
    and splits the join layer's matmul at the noise columns, so the two
    agree to roundoff."""
    n, k = case.get("n", 5), case.get("k", 4)
    net = NetConfig(x_dim=2, y_dim=2, z_dim=3, encoder_widths=(4,), decoder_widths=(5, 4))
    net = NetConfig(**{**net.to_dict(), **net_kw})
    loss = LossSpec(beta=case.get("beta", 1.0), weights=case.get("weights"))
    cfg = ObjectiveConfig(gamma=case["gamma"], num_candidates=k, loss=loss)
    rng = np.random.default_rng(17)
    params = init_params(net, seed=17)
    x = rng.normal(size=(n, net.x_dim))
    y = rng.normal(size=(n, net.y_dim))
    z = rng.uniform(-1.0, 1.0, size=(n, k, net.z_dim))

    pq, qq, value, grad = objective_terms(params, x, y, z, cfg)
    value_ref, grad_ref = _graph_value_grad(params, x, y, z, cfg)
    pq_ref, _ = _graph_value_grad(params, x, y, z, ObjectiveConfig(0.0, k, loss))
    tol = dict(rtol=1e-12, atol=1e-12)
    npt.assert_allclose(value, value_ref, **tol)
    npt.assert_allclose(pq, pq_ref, **tol)
    npt.assert_allclose(grad, grad_ref, **tol)
    assert np.any(grad != 0.0)
    if k == 1:
        assert np.isnan(qq)
        return
    # predict_rows ignores z when noise is disabled
    outs = predict_rows(params, np.repeat(x, k, axis=0), z.reshape(n * k, -1))
    npt.assert_allclose(qq, div_qq_hat(outs.reshape(n, k, -1), loss), **tol)
    if not net.noise_enabled:
        assert qq == 0.0  # coincident candidates: every pair sits at the singularity


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "noise-disabled"])
def test_objective_terms_workspace_is_bitwise(noise):
    """With a workspace, cold and then warm after a walk over other data of
    the same shape, objective_terms returns bitwise the value and gradient it
    returns without one, on a net with layers on both sides of the join."""
    n, k = 5, 4
    net = NetConfig(x_dim=2, y_dim=2, z_dim=3, encoder_widths=(4, 3), decoder_widths=(5, 4),
                    noise_enabled=noise)
    cfg = ObjectiveConfig(gamma=0.5, num_candidates=k)
    params = init_params(net, seed=17)
    rng = np.random.default_rng(17)
    batches = [(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
                rng.uniform(-1.0, 1.0, size=(n, k, 3))) for _ in range(2)]
    _, _, value, grad = objective_terms(params, *batches[0], cfg)
    work = {}
    _, _, cold_value, cold = objective_terms(params, *batches[0], cfg, work)
    cold = cold.copy()
    objective_terms(params, *batches[1], cfg, work)
    _, _, warm_value, warm = objective_terms(params, *batches[0], cfg, work)
    assert cold_value == warm_value == value
    for got in (cold, warm):
        assert got.view(np.uint64).tolist() == grad.view(np.uint64).tolist()


@pytest.mark.parametrize("y_dim", [1, 2])
@pytest.mark.parametrize("noise", [True, False], ids=["noise", "noise-disabled"])
def test_objective_terms_share_the_sampled_estimators(y_dim, noise):
    """On the candidates of the walk it takes, objective_terms's two terms
    and value are bitwise those of div_pq_hat, div_qq_hat and
    disco_objective: both sides take the same scoring kernels' per-example
    values and their mean."""
    n, k = 5, 4
    net = NetConfig(x_dim=2, y_dim=y_dim, z_dim=3, encoder_widths=(4,), decoder_widths=(5, 4),
                    noise_enabled=noise)
    rng = np.random.default_rng(23)
    params = init_params(net, seed=23)
    x = rng.normal(size=(n, net.x_dim))
    y = rng.normal(size=(n, net.y_dim))
    z = rng.uniform(-1.0, 1.0, size=(n, k, net.z_dim))
    walked = k if noise else 1  # a noise-free net walks one candidate and repeats it
    *_, out = layer_walk(params, x, z[:, :walked], walked)
    outs = np.repeat(out[1].reshape(n, walked, y_dim), k // walked, axis=1)
    for beta in (0.5, 1.0, 1.5):
        loss = LossSpec(beta=beta)
        for gamma in (0.0, 0.5):
            cfg = ObjectiveConfig(gamma=gamma, num_candidates=k, loss=loss)
            pq, qq, value, _ = objective_terms(params, x, y, z, cfg)
            assert pq == div_pq_hat(y, outs, loss), (beta, gamma)
            assert qq == div_qq_hat(outs, loss), (beta, gamma)
            assert value == disco_objective(y, outs, cfg), (beta, gamma)


@pytest.mark.parametrize("y_dim", [1, 2])
def test_noise_free_objective_skips_the_pair_kernel(monkeypatch, y_dim):
    """A noise-free net's K candidates are one candidate repeated, and the
    zero rule gives every pair of them zero loss and zero slope. So
    objective_terms sets DIVhat(Q,Q) to 0.0 and adds no pair gradient
    without calling the pair term or its gradient, at gamma 0.5 as at gamma
    0; a noisy net still calls them."""
    calls = []
    for name in ("pair_grad", "pair_term"):
        def counted(*args, _name=name, _real=getattr(objective_module, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(objective_module, name, counted)
    n, k = 5, 4
    rng = np.random.default_rng(29)
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, y_dim))
    z = rng.uniform(-1.0, 1.0, size=(n, k, 3))
    for noise in (False, True):
        net = NetConfig(x_dim=2, y_dim=y_dim, z_dim=3, encoder_widths=(4,), decoder_widths=(5, 4),
                        noise_enabled=noise)
        params = init_params(net, seed=29)
        for beta in (0.5, 1.0):
            terms = [objective_terms(params, x, y, z, ObjectiveConfig(gamma, k, LossSpec(beta=beta)))
                     for gamma in (0.0, 0.5)]
            if noise:
                continue
            assert calls == []
            for pq, qq, value, _ in terms:
                assert qq == 0.0 and value == pq
            npt.assert_array_equal(terms[1][3], terms[0][3])
    assert calls == ["pair_term", "pair_grad"] * 2


def _pair_values(kind, n=4, k=6, w=2.7):
    """(n, K) values of one output; "tied" makes candidates 1 and 4 equal
    and the first row constant, "near-tied" puts candidate 4 half the
    singularity distance t = sqrt(SINGULARITY_EPS / w) above candidate 1."""
    g = np.random.default_rng(5).normal(size=(n, k))
    if kind == "tied":
        g[:, 4] = g[:, 1]
        g[0] = g[0, 0]
    elif kind == "near-tied":
        g[:, 4] = g[:, 1] + 0.5 * np.sqrt(SINGULARITY_EPS / w)
    return g


def _graph_pair_grad(g, w, beta):
    """The graph's gradient of sum over examples of the pair term of the
    (n, K) values `g`, with respect to g."""
    n, k = g.shape
    graph = Graph()
    rows = graph.constant(g.reshape(n * k, 1))
    idx1, idx2 = candidate_pair_indices(k, n)
    terms = graph.row_pow_norms(
        graph.gather_rows(rows, idx1), graph.gather_rows(rows, idx2), weights=(w,), beta=beta
    )
    graph.backward(graph.scale(graph.reduce_sum(terms), 1.0 / (k * (k - 1))))
    return graph.grad(rows).array.reshape(n, k)


@pytest.mark.parametrize("kind", ["random", "tied", "near-tied"])
def test_sorted_pair_form_matches_broadcast(kind):
    """With one output and beta = 1 the pair term and its gradient
    (``scoring.pair_grad``) come from sorted candidates; they agree with the
    broadcast loss matrix and with the graph's pair gradient at 1e-12,
    under a non-unit weight. Exact ties and a pair closer than
    t = sqrt(SINGULARITY_EPS / w) get zero slope, as the broadcast form's
    singularity rule gives them."""
    w = 2.7
    g = _pair_values(kind, w=w)
    k = g.shape[1]
    spec = LossSpec(beta=1.0, weights=(w,))
    tol = dict(rtol=1e-12, atol=1e-12)

    value = pair_term(g[..., None], np.array([w]), 1.0)
    ref = [pairwise_delta(spec, row[:, None]).sum() / (k * (k - 1)) for row in g]
    npt.assert_allclose(value, ref, **tol)

    value_g, grad = pair_grad(g[..., None], np.array([w]), 1.0)
    npt.assert_array_equal(value_g, value)
    grad = grad[..., 0]
    npt.assert_allclose(grad, _graph_pair_grad(g, w, 1.0), **tol)
    if kind == "tied":
        assert value[0] == 0.0 and np.all(grad[0] == 0.0)
    if kind != "random":
        # candidates 1 and 4 give each other no slope and see the rest alike
        npt.assert_array_equal(grad[:, 1], grad[:, 4])


@pytest.mark.parametrize("kind", ["random", "tied", "near-tied"])
def test_broadcast_pair_grad_matches_graph(kind):
    """The broadcast branch of ``scoring.pair_grad`` (one output, beta =
    0.5) gives pair_term's values bitwise and the graph's pair gradient at
    1e-12; a pair under the singularity distance gets zero slope."""
    w = 2.7
    g = _pair_values(kind, w=w)
    value, grad = pair_grad(g[..., None], np.array([w]), 0.5)
    npt.assert_array_equal(value, pair_term(g[..., None], np.array([w]), 0.5))
    npt.assert_allclose(grad[..., 0], _graph_pair_grad(g, w, 0.5), rtol=1e-12, atol=1e-12)
    if kind == "tied":
        assert value[0] == 0.0 and np.all(grad[0] == 0.0)


def test_objective_terms_contract_errors():
    params, x, y, z = _fixture(seed=13)
    cfg = ObjectiveConfig(gamma=0.5, num_candidates=3)
    with pytest.raises(ContractError):
        objective_terms(params, x, y, None, cfg)
    with pytest.raises(DimensionError):
        objective_terms(params, x, y, z[:, :2, :], cfg)
    with pytest.raises(DimensionError):
        objective_terms(params, x[:, :1], y, z, cfg)
    with pytest.raises(ContractError):
        objective_terms(params, x[:0], y[:0], z[:0], cfg)
