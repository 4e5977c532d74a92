import numpy as np
import numpy.testing as npt
import pytest

from disconet import (
    ContractError,
    NetConfig,
    NetworkParams,
    NumericError,
    ObjectiveConfig,
    ParameterError,
    TrainConfig,
    div_qq_hat,
    gen_conditional_bimodal,
    init_params,
    objective_terms,
    sgd_momentum_step,
    train,
    train_val_split,
)
from disconet import objective as objective_module
from disconet import training
from disconet.network import draw_noise
from disconet.rng import derive_seed, substream
from disconet.training import validation_objective


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(momentum=-0.1)
    with pytest.raises(ParameterError):
        TrainConfig(l2=-1e-4)
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterError):
        TrainConfig(val_count=-1)
    with pytest.raises(ParameterError):
        TrainConfig(seed=-1)


def test_sgd_momentum_hand_values():
    # Manually calculated on f(t) = t^2/2, grad t, lr 0.1, momentum 0.9:
    # v1 = -0.1, t1 = 0.9; v2 = 0.9*(-0.1) - 0.1*0.9 = -0.18, t2 = 0.72.
    theta = np.array([1.0])
    v = np.zeros(1)
    theta, v = sgd_momentum_step(theta, theta.copy(), v, lr=0.1, momentum=0.9)
    npt.assert_allclose(theta, [0.9], rtol=1e-15)
    npt.assert_allclose(v, [-0.1], rtol=1e-15)
    theta, v = sgd_momentum_step(theta, theta.copy(), v, lr=0.1, momentum=0.9)
    npt.assert_allclose(theta, [0.72], rtol=1e-14)
    npt.assert_allclose(v, [-0.18], rtol=1e-14)


def test_sgd_l2_respects_weight_mask():
    """With zero gradient the decay shrinks masked entries only, so the
    parameter norm decreases while biases stay put."""
    params = np.array([2.0, -3.0, 0.5])
    grads = np.zeros(3)
    v = np.zeros(3)
    mask = np.array([True, True, False])
    new, v = sgd_momentum_step(params, grads, v, lr=0.1, momentum=0.0, l2=0.5, weight_mask=mask)
    npt.assert_allclose(new[:2], params[:2] * (1.0 - 0.1 * 0.5), rtol=1e-15)
    assert new[2] == params[2]
    assert np.linalg.norm(new) < np.linalg.norm(params)


def test_sgd_shape_mismatch():
    from disconet import DimensionError

    with pytest.raises(DimensionError):
        sgd_momentum_step(np.zeros(3), np.zeros(2), np.zeros(3), lr=0.1, momentum=0.9)


def test_train_val_split_properties():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=(20, 1))
    (xt, yt), (xv, yv) = train_val_split((x, y), 5, seed=7)
    assert xt.shape == (15, 2) and xv.shape == (5, 2)
    assert yt.shape == (15, 1) and yv.shape == (5, 1)
    # disjoint and exhaustive: every original row appears exactly once
    joined = np.concatenate([np.hstack([xt, yt]), np.hstack([xv, yv])])
    orig = np.hstack([x, y])
    assert {tuple(r) for r in joined} == {tuple(r) for r in orig}
    # deterministic in the seed
    (xt2, _), _ = train_val_split((x, y), 5, seed=7)
    npt.assert_array_equal(xt, xt2)
    (xt3, _), _ = train_val_split((x, y), 5, seed=8)
    assert not np.array_equal(xt, xt3)
    with pytest.raises(ContractError):
        train_val_split((x, y), 0, seed=7)
    with pytest.raises(ContractError):
        train_val_split((x, y), 20, seed=7)


NET = NetConfig(x_dim=1, y_dim=1, z_dim=4, encoder_widths=(8,), decoder_widths=(8,))


def _small_cfg(**kw):
    defaults = dict(
        objective=ObjectiveConfig(gamma=0.5, num_candidates=4),
        lr=0.01,
        momentum=0.9,
        batch_size=16,
        epochs=3,
        seed=5,
        val_count=8,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def _small_data(seed=5, n=64):
    return gen_conditional_bimodal(n, substream(seed, "traintest-data"))


def test_train_is_deterministic():
    """Reruns with the same config produce identical parameters and
    objective sequences; wall-clock seconds are the one free field."""
    data = _small_data()
    p1, h1 = train(NET, _small_cfg(), data)
    p2, h2 = train(NET, _small_cfg(), data)
    npt.assert_array_equal(p1.to_flat(), p2.to_flat())
    assert [e.train_objective for e in h1] == [e.train_objective for e in h2]
    assert [e.val_objective for e in h1] == [e.val_objective for e in h2]
    assert [e.epoch for e in h1] == [1, 2, 3]


def test_train_seed_changes_outcome():
    data = _small_data()
    p1, _ = train(NET, _small_cfg(), data)
    p2, _ = train(NET, _small_cfg(seed=6), data)
    assert not np.array_equal(p1.to_flat(), p2.to_flat())


def test_train_objective_decreases():
    data = _small_data(n=128)
    _, epochs = train(NET, _small_cfg(epochs=20, val_count=16), data)
    first = epochs[0].train_objective
    last = epochs[-1].train_objective
    assert last < first


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_epoch_terms_recombine_to_objective(gamma):
    """train_pq and train_qq are size-weighted epoch means like
    train_objective, so they recombine to it on every epoch. The last
    minibatch is short (56 training rows, batch 16), so the weights matter.
    DIVhat(Q,Q) is reported at gamma = 0 as well."""
    data = _small_data()
    cfg = _small_cfg(objective=ObjectiveConfig(gamma=gamma, num_candidates=4), epochs=4)
    _, epochs = train(NET, cfg, data)
    for e in epochs:
        assert e.train_pq - gamma * e.train_qq == pytest.approx(e.train_objective, rel=1e-12, abs=1e-12)
        assert e.train_qq > 0.0


def _reference_train(net, cfg, data):
    """``train`` as a plain loop: fresh arrays in every step, a new
    NetworkParams after every update. Returns the final flat vector and
    every epoch's fields but its seconds."""
    (x, y), val = train_val_split(data, cfg.val_count, cfg.seed)
    params = init_params(net, derive_seed(cfg.seed, "init"))
    velocity, mask = np.zeros(params.size), params.weight_mask()
    shuffle_rng, noise_rng, val_rng = (substream(cfg.seed, s) for s in ("shuffle", "noise", "val-noise"))
    stats = []
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(x.shape[0])
        sums = np.zeros(3)
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            z = draw_noise(net, len(idx), cfg.objective.num_candidates, noise_rng)
            pq, qq, value, grads = objective_terms(params, x[idx], y[idx], z, cfg.objective)
            flat, velocity = sgd_momentum_step(params.flat, grads, velocity, cfg.lr, cfg.momentum,
                                               cfg.l2, mask)
            params = NetworkParams.from_flat(net, flat)
            sums += np.array([value, pq, qq]) * len(idx)
        obj, pq, qq = (float(v) for v in sums / x.shape[0])
        stats.append((epoch, obj, validation_objective(params, val, cfg.objective, val_rng), pq, qq))
    return params.flat, stats


@pytest.mark.parametrize("noise_enabled", [True, False], ids=["noise", "noise-free"])
def test_train_is_bitwise_the_reference_loop(monkeypatch, noise_enabled):
    """``train``, whose steps write into held arrays and update one
    parameter vector in place, gives bitwise what the plain loop gives:
    over 3 epochs, with a short last minibatch (44 training rows in batches
    of 20, so two batch shapes), a validation set as large as a batch, which
    samples into the step's arrays, and L2 on the weights. The parameters it
    returns are read-only and share memory with none of its arrays."""
    net = NetConfig(**{**NET.to_dict(), "noise_enabled": noise_enabled})
    cfg = _small_cfg(batch_size=20, val_count=20, l2=1e-3)
    data = _small_data()
    held = []
    terms, step = training.objective_terms, training.sgd_momentum_step

    def held_terms(*args):
        held.append(args[-1])
        return terms(*args)

    def held_step(*args):
        held.extend(a for a in args if isinstance(a, np.ndarray))
        return step(*args)

    monkeypatch.setattr(training, "objective_terms", held_terms)
    monkeypatch.setattr(training, "sgd_momentum_step", held_step)
    params, epochs = train(net, cfg, data)
    want_flat, want_stats = _reference_train(net, cfg, data)
    assert (params.flat == want_flat).all()
    assert [(e.epoch, e.train_objective, e.val_objective, e.train_pq, e.train_qq)
            for e in epochs] == want_stats
    assert not params.flat.flags.writeable
    work = held[0]  # by (n, K); a noise-free net walks one candidate per input
    shapes = {(4, 4), (20, 4)} if noise_enabled else {(4, 1), (20, 1)}
    assert {key[:2] for key in work} == shapes
    for arrays in work.values():
        held.extend(arrays if isinstance(arrays, tuple) else [arrays])
    assert not any(np.shares_memory(params.flat, a) for a in held if isinstance(a, np.ndarray))


def test_noise_free_train_walks_one_candidate(monkeypatch):
    """A noise-free net's K = 4 candidates are one walked candidate
    repeated, as the samplers repeat it: every step walks one row per input,
    DIVhat(Q,Q) is exactly 0 and gamma 0.5 changes nothing, and the run
    follows the K = 1 run, whose data term is the same, up to the last bits
    of adding up the four copies' gradients."""
    net = NetConfig(**{**NET.to_dict(), "noise_enabled": False})
    data = _small_data()
    walked, walk = [], objective_module.layer_walk

    def spy(params, x, z=None, k=1, work=None):
        walked.append(k)
        return walk(params, x, z, k, work)

    monkeypatch.setattr(objective_module, "layer_walk", spy)
    runs = {k: train(net, _small_cfg(objective=ObjectiveConfig(gamma=gamma, num_candidates=k)), data)
            for k, gamma in ((4, 0.5), (1, 0.0))}
    assert set(walked) == {1}
    (p4, e4), (p1, e1) = runs[4], runs[1]
    assert [e.train_qq for e in e4] == [0.0] * len(e4)
    npt.assert_allclose(p4.flat, p1.flat, rtol=1e-12, atol=1e-15)
    npt.assert_allclose([e.train_pq for e in e4], [e.train_pq for e in e1], rtol=1e-12)
    npt.assert_allclose([e.train_objective for e in e4], [e.train_pq for e in e4], rtol=0)


def test_train_no_validation_gives_nan_val():
    data = _small_data()
    _, epochs = train(NET, _small_cfg(val_count=0), data)
    assert np.isnan(epochs[-1].val_objective)
    assert np.isfinite(epochs[-1].train_objective)


def test_train_writes_checkpoints(tmp_path):
    from disconet import NetworkParams

    data = _small_data()
    ckpt_dir = tmp_path / "not-yet" / "made"  # created at the first save
    params, _ = train(
        NET, _small_cfg(epochs=4, checkpoint_every=2), data, checkpoint_dir=str(ckpt_dir)
    )
    files = sorted(p.name for p in ckpt_dir.iterdir())
    assert files == ["checkpoint_epoch_2.txt", "checkpoint_epoch_4.txt"]
    final = NetworkParams.load(ckpt_dir / "checkpoint_epoch_4.txt")
    npt.assert_array_equal(final.to_flat(), params.to_flat())


def test_train_numeric_blowup_names_the_batch():
    # beta = 1 keeps gradients bounded, so overflow needs an absurd step:
    # one update puts the weights near 1e100 and the next forward pass
    # breaches float range inside the loss.
    data = _small_data()
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
        train(NET, _small_cfg(lr=1e100, epochs=2), data)


def test_train_data_dims_checked():
    from disconet import DimensionError

    x, y = _small_data()
    with pytest.raises(DimensionError):
        train(NetConfig(x_dim=2, y_dim=1, z_dim=4), _small_cfg(), (x, y))


def test_validation_objective_matches_manual():
    data = _small_data(n=16)
    params = init_params(NET, seed=3)
    v1 = validation_objective(params, data, ObjectiveConfig(gamma=0.5, num_candidates=4),
                              substream(0, "check"))
    v2 = validation_objective(params, data, ObjectiveConfig(gamma=0.5, num_candidates=4),
                              substream(0, "check"))
    assert v1 == v2
    assert np.isfinite(v1)


def test_candidate_diversity_grows_with_gamma(bimodal_ablation):
    """Trained at higher diversity weight, the sampled candidates spread
    more: the pair-distance estimate rises from (near) zero monotonically."""
    from tests.conftest import sampled_candidates

    runs = bimodal_ablation["runs"]
    seeds = bimodal_ablation["seeds"]
    x_eval = np.linspace(-1.0, 1.0, 64)[:, None]
    for i, seed in enumerate(seeds):
        spreads = {}
        for name in ("g0_noise", "g025", "g05"):
            params = runs[name][i][0]
            spreads[name] = div_qq_hat(sampled_candidates(params, x_eval, seed))
        assert spreads["g0_noise"] < spreads["g025"] < spreads["g05"], (seed, spreads)
