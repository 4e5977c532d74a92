import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from disconet import (
    ContractError,
    DimensionError,
    EstimatorError,
    LossSpec,
    NetConfig,
    NetworkParams,
    ObjectiveConfig,
    ParameterError,
    base_candidates,
    energy_score_sample,
    ff,
    joint_count,
    majee,
    meu_predict,
    mejee,
    gen_conditional_bimodal,
    init_params,
    metrics_report,
    objective_terms,
    pearson_matrix,
    probloss,
    report_rows,
    sgd_momentum_step,
)
from disconet.metrics import EVAL_BLOCK, _fold
from disconet.network import draw_noise, layer_walk, walk_back
from disconet.scoring import mean_sem, pair_grad


def test_joint_count():
    assert joint_count(3, 1) == 3
    assert joint_count(6, 3) == 2
    with pytest.raises(DimensionError):
        joint_count(5, 3)
    for size in (0, -1):
        with pytest.raises(ContractError, match="group_size must be >= 1"):
            joint_count(6, size)


def test_joint_errors_grouped():
    group = 2
    # Manually calculated: joint 1 displaced (3, 4) -> 5, joint 2 exact.
    preds, gts = [[3.0, 4.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0]]
    assert mejee(preds, gts, group) == (2.5, 0.0)
    assert majee(preds, gts, group) == (5.0, 0.0)
    for metric in (mejee, majee):
        with pytest.raises(DimensionError):
            metric([[1.0]], gts, group)
        with pytest.raises(DimensionError):  # 3 coordinates in joints of 2
            metric([[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]], group)


def test_meu_hand_values():
    # Manually calculated pair-loss totals: 11, 10, 19 -> index 1.
    idx, out = meu_predict([[0.0], [1.0], [10.0]])
    assert idx == 1
    npt.assert_array_equal(out, [1.0])
    # tie between the duplicate candidates resolves to the lowest index
    idx, out = meu_predict([[0.0], [0.0], [5.0]])
    assert idx == 0
    npt.assert_array_equal(out, [0.0])
    # single candidate is returned as-is
    idx, out = meu_predict([[7.0, 2.0]])
    assert idx == 0


def test_meu_scale_invariant(rng):
    """Positive rescaling of all candidates never changes the selection,
    tie-breaks included. In 1-D every candidate on the median plateau has
    the same total in exact arithmetic; the pick follows their order there."""
    for _ in range(50):
        k = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4))
        cands = rng.normal(size=(k, dim))
        if k >= 2 and rng.uniform() < 0.5:
            cands[rng.integers(1, k)] = cands[0]  # engineered bitwise tie
        base_idx, _ = meu_predict(cands)
        for c in (0.1, 3.0, 250.0):
            idx, _ = meu_predict(c * cands)
            assert idx == base_idx


@pytest.mark.parametrize("k", [2, 3, 4, 7, 16])
def test_one_output_meu_follows_order_not_roundoff(k):
    """At one output the pick is the lowest index among the exact minimizers
    of sum_b |g_a - g_b|, here on quarter-integers whose sums are exact, and
    a one-ulp move of every candidate that keeps their order leaves it, in
    meu_predict and in the metric pass alike."""
    rng = np.random.default_rng(k)
    sets = rng.integers(-8, 9, size=(200, k)) / 4.0
    sets[::4] = rng.integers(-1, 2, size=(50, k)) / 4.0  # many exact ties
    wants = []
    for g in sets:
        totals = np.abs(g[:, None] - g[None, :]).sum(axis=1)
        want = int(np.flatnonzero(totals == totals.min())[0])
        wants.append(want)
        distinct, inverse = np.unique(g, return_inverse=True)
        up = rng.uniform(size=distinct.size) < 0.5  # tied candidates move alike
        moved = np.nextafter(g, np.where(up[inverse], np.inf, -np.inf))
        assert np.array_equal(np.argsort(moved, kind="stable"), np.argsort(g, kind="stable"))
        for cands in (g, moved, 3.0 * moved):
            assert meu_predict(cands[:, None])[0] == want
    moved = np.nextafter(sets, np.inf)
    _, picks, _, _ = _fold(moved[:, :, None], np.zeros((len(sets), 1)))
    npt.assert_array_equal(picks[:, 0], moved[np.arange(len(sets)), wants])


@pytest.mark.parametrize("y_dim", [1, 2])
def test_meu_refuses_task_loss_weights_of_another_length(y_dim):
    """Weights for another number of outputs are a DimensionError, at one
    output (the sorted form) as at two."""
    cands = np.arange(3.0 * y_dim).reshape(3, y_dim)
    with pytest.raises(DimensionError):
        meu_predict(cands, LossSpec(beta=1.0, weights=(1.0,) * (y_dim + 1)))


def test_meu_respects_task_loss():
    # under weights (10, 0.1) the first coordinate dominates the choice
    cands = np.array([[0.0, 9.0], [0.1, 0.0], [2.0, 0.1]])
    heavy_first = LossSpec(beta=1.0, weights=(10.0, 0.1))
    heavy_second = LossSpec(beta=1.0, weights=(0.1, 10.0))
    idx1, _ = meu_predict(cands, heavy_first)
    idx2, _ = meu_predict(cands, heavy_second)
    assert idx1 != idx2


PREDS = np.array([[1.0, 2.0], [3.0, 4.0]])
GTS = np.zeros((2, 2))
GROUP = 1  # one joint per coordinate


def test_mejee_majee_ff_hand_values():
    # Manually calculated: frame means 1.5 and 3.5, frame maxes 2 and 4.
    val, sem = mejee(PREDS, GTS, GROUP)
    assert val == 2.5
    assert sem == pytest.approx(1.0, abs=1e-12)
    val, sem = majee(PREDS, GTS, GROUP)
    assert val == 3.0
    assert sem == pytest.approx(1.0, abs=1e-12)
    assert ff(PREDS, GTS, GROUP, 1.0) == 0.0
    assert ff(PREDS, GTS, GROUP, 2.5) == 0.5
    assert ff(PREDS, GTS, GROUP, 5.0) == 1.0
    assert ff(PREDS, GTS, GROUP, 2.0) == 0.5  # boundary counts as within


def test_mejee_never_exceeds_majee(rng):
    for _ in range(50):
        frames = int(rng.integers(1, 6))
        joints = int(rng.integers(1, 5))
        group = int(rng.integers(1, 3))
        preds = rng.normal(size=(frames, joints * group))
        gts = rng.normal(size=(frames, joints * group))
        assert mejee(preds, gts, group)[0] <= majee(preds, gts, group)[0] + 1e-15


def test_probloss_hand_value():
    # single frame, candidates {1, 3} against 0: energy score 1
    val, sem = probloss([[[1.0], [3.0]]], [[0.0]])
    assert val == 1.0
    assert sem == 0.0
    with pytest.raises(ContractError):
        probloss([[[1.0], [3.0]]], [[0.0], [1.0]])


def test_pearson_exact_lines():
    # second joint moves at exactly twice the first: correlation 1
    outs = [[[-1.0, -2.0], [0.0, 0.0], [1.0, 2.0]]]
    values, defined = pearson_matrix(outs, 1)
    assert defined.all()
    npt.assert_array_equal(values, [[1.0, 1.0], [1.0, 1.0]])
    # opposite direction: correlation -1, diagonal still 1
    outs = [[[-1.0, 2.0], [0.0, 0.0], [1.0, -2.0]]]
    values, defined = pearson_matrix(outs, 1)
    npt.assert_array_equal(values, [[1.0, -1.0], [-1.0, 1.0]])


def test_pearson_zero_variance_marked_undefined():
    outs = [[[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]]
    values, defined = pearson_matrix(outs, 1)
    assert defined[0, 0]
    assert values[0, 0] == 1.0
    assert not defined[0, 1]
    assert not defined[1, 1]
    assert np.isnan(values[0, 1])
    assert np.isnan(values[1, 1])


def test_pearson_averages_only_defined_inputs():
    live = [[-1.0, -2.0], [0.0, 0.0], [1.0, 2.0]]
    flat = [[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]]
    values, defined = pearson_matrix([live, flat], 1)
    # the flat input contributes nothing to the (0, 1) cell
    assert defined[0, 1]
    assert values[0, 1] == 1.0


def test_pearson_needs_two_candidates():
    with pytest.raises(EstimatorError):
        pearson_matrix([[[1.0, 2.0]]], 1)
    with pytest.raises(ContractError):
        pearson_matrix(np.zeros((0, 2, 2)), 1)
    with pytest.raises(DimensionError):
        pearson_matrix(np.zeros((1, 2, 3)), 2)


def test_base_candidates(rng):
    pin = np.array([[2.0, -1.0], [0.5, 3.0], [-4.0, 0.0]])
    outs = base_candidates(pin, 5, 0.1, np.random.default_rng(3))
    assert outs.shape == (3, 5, 2)
    # the one (N, K, y_dim) draw takes the values of N successive (K, y_dim) draws
    frame_rng = np.random.default_rng(3)
    for i in range(3):
        npt.assert_array_equal(outs[i], pin[i] + 0.1 * frame_rng.standard_normal((5, 2)))
    # jitter stays at scale sigma
    assert np.abs(outs - pin[:, None, :]).max() < 0.1 * 6
    with pytest.raises(ParameterError):
        base_candidates(pin, 5, 0.0, rng)
    with pytest.raises(ContractError):
        base_candidates(pin, 0, 0.1, rng)
    with pytest.raises(DimensionError):
        base_candidates(pin[0], 5, 0.1, rng)


@pytest.mark.parametrize("n", [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 67])
def test_base_candidates_block_by_block_are_one_draw(n):
    """Eval draws the jitter of EVAL_BLOCK frames at a time from one stream:
    bitwise one ``standard_normal((N, K, y_dim))`` draw, with the stream left
    where that draw leaves it."""
    points = np.random.default_rng(n).normal(size=(n, 42))
    rng, one = np.random.default_rng(5), np.random.default_rng(5)
    blocks = [base_candidates(points[s:s + EVAL_BLOCK], 32, 0.3, rng)
              for s in range(0, n, EVAL_BLOCK)]
    npt.assert_array_equal(np.concatenate(blocks),
                           points[:, None, :] + 0.3 * one.standard_normal((n, 32, 42)))
    assert rng.bit_generator.state == one.bit_generator.state


def _report_fixture():
    outs = np.array([
        [[1.0, 0.0], [3.0, 0.0]],
        [[0.0, 2.0], [0.0, 4.0]],
    ])
    gts = np.zeros((2, 2))
    return outs, gts


def test_metrics_report_assembles():
    outs, gts = _report_fixture()
    doc = metrics_report(outs, gts, 1, distances=(0.5, 2.0))
    assert doc["probloss"] is not None
    assert doc["pearson"] is not None
    assert doc["counts"] == {"frames": 2, "candidates": 2, "joints": 2}
    assert set(doc["ff"]) == {"0.5", "2"}
    json.dumps(doc, allow_nan=False)  # NaN must never leak into the JSON form
    names = [r[0] for r in report_rows(doc)]
    assert "probloss" in names and "mejee" in names and "ff_0.5" in names
    # one input's (K, y_dim) matrix is not an (N, K, y_dim) candidate array
    with pytest.raises(ContractError):
        metrics_report(outs[0], gts, 1, distances=(0.5,))


def test_metrics_report_rejects_colliding_ff_labels():
    """FF values are keyed by the distance's ``:g`` label in metrics.json and
    metrics.csv, so two distinct distances sharing a label would lose one."""
    outs, gts = _report_fixture()
    with pytest.raises(ContractError, match="1.0 and 1.0000001"):
        metrics_report(outs, gts, 1, distances=(1.0, 1.0000001, 1.5))
    # the same distance twice is one entry under one label
    doc = metrics_report(outs, gts, 1, distances=(1.0, 1.0, 1.5))
    assert set(doc["ff"]) == {"1", "1.5"}


def test_metrics_report_single_candidate():
    outs = [[[1.0, 0.0]], [[0.0, 2.0]]]
    doc = metrics_report(outs, np.zeros((2, 2)), 1, distances=(1.0,))
    assert doc["probloss"] is None
    assert doc["pearson"] is None
    rows = dict((r[0], r[1]) for r in report_rows(doc))
    assert rows["probloss"] == ""


def test_metrics_report_pointwise_override():
    outs, gts = _report_fixture()
    doc = metrics_report(outs, gts, 1, distances=(1.0,), pointwise_preds=gts)
    # perfect externally supplied predictions zero out the pointwise metrics
    assert doc["mejee"]["value"] == 0.0
    assert doc["majee"]["value"] == 0.0
    assert doc["ff"]["1"] == 1.0
    # while the candidate-based probabilistic entry is untouched
    assert doc["probloss"]["value"] > 0.0


_FF_DISTANCES = (0.5, 2.0, 10.0, 1e-05)  # "1e-05" sorts after "0.5" as text, first as a number


@pytest.mark.parametrize("candidates, group, expected", [
    (2, 1, [  # K = 2; the two joints never move in the same frame: off-diagonal undefined
        ("probloss", "1.5", "0.5"), ("mejee", "0.75", "0.25"), ("majee", "1.5", "0.5"),
        ("ff_1e-05", "0.0", ""), ("ff_0.5", "0.0", ""), ("ff_2", "1.0", ""), ("ff_10", "1.0", ""),
        ("pearson_0_0", "1.0", ""), ("pearson_0_1", "", ""),
        ("pearson_1_0", "", ""), ("pearson_1_1", "1.0", ""),
        ("count_candidates", "2", ""), ("count_frames", "2", ""), ("count_joints", "2", ""),
    ]),
    (1, 1, [  # K = 1: blank ProbLoss, no Pearson rows
        ("probloss", "", ""), ("mejee", "0.75", "0.25"), ("majee", "1.5", "0.5"),
        ("ff_1e-05", "0.0", ""), ("ff_0.5", "0.0", ""), ("ff_2", "1.0", ""), ("ff_10", "1.0", ""),
        ("count_candidates", "1", ""), ("count_frames", "2", ""), ("count_joints", "2", ""),
    ]),
    (3, 2, [  # K = 3, joints of two coordinates, every cell defined
        ("probloss", "1.700066091226812", "0.0036853567979130415"),
        ("mejee", "1.766123775561495", "0.05901699437494745"),
        ("majee", "2.118033988749895", "0.1180339887498949"),
        ("ff_1e-05", "0.0", ""), ("ff_0.5", "0.0", ""), ("ff_2", "0.5", ""), ("ff_10", "1.0", ""),
        ("pearson_0_0", "1.0", ""), ("pearson_0_1", "0.8156622795031462", ""),
        ("pearson_1_0", "0.8156622795031462", ""), ("pearson_1_1", "1.0", ""),
        ("count_candidates", "3", ""), ("count_frames", "2", ""), ("count_joints", "2", ""),
    ]),
])
def test_report_rows_pinned(candidates, group, expected):
    """The rows of metrics.csv, pinned as the earlier report type wrote them:
    the three pairs, FF by numeric distance, Pearson row-major, counts by key."""
    if group == 1:
        outs, gts = _report_fixture()
        outs = outs[:, :candidates]
    else:
        outs = np.array([
            [[1.0, 0.0, 2.0, 1.0], [3.0, 0.0, 0.0, 1.0], [2.0, 1.0, 1.0, 1.0]],
            [[0.0, 2.0, 1.0, 1.0], [0.0, 4.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]],
        ])
        gts = np.zeros((2, 4))
    assert report_rows(metrics_report(outs, gts, group, _FF_DISTANCES)) == expected


def _pearson_frame_by_frame(outs, group):
    """The correlation pass one frame at a time: the reference for the
    blocked pass in ``pearson_matrix``. A joint is live in a frame when two
    candidates differ in one of its coordinates and its reduced deviations
    spread."""
    _, k, _ = outs.shape
    j = outs.shape[2] // group
    sums = np.zeros((j, j))
    counts = np.zeros((j, j), dtype=np.int64)
    for o in outs:
        dev = (o - o.mean(axis=0, keepdims=True)).reshape(k, j, group)
        e = np.sqrt((dev * dev).sum(axis=2)) if group > 1 else dev[:, :, 0]
        c = e - e.mean(axis=0, keepdims=True)
        ss = (c * c).sum(axis=0)
        live = (o != o[0]).any(axis=0).reshape(j, group).any(axis=1) & (ss > 0.0)
        mask = np.outer(live, live)
        denom = np.sqrt(np.outer(ss, ss))
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(mask, (c.T @ c) / np.where(denom > 0.0, denom, 1.0), 0.0)
        sums += np.clip(r, -1.0, 1.0) * mask
        counts += mask
    defined = counts > 0
    values = np.full((j, j), np.nan)
    values[defined] = sums[defined] / counts[defined]
    values[np.diag_indices(j)] = np.where(np.diag(defined), 1.0, np.nan)
    return values, defined


# below, on and past the block size: one frame past it, two full blocks, and a
# short last block after four full ones
_FRAME_COUNTS = (1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 2 * EVAL_BLOCK, 4 * EVAL_BLOCK + 3)


@pytest.mark.parametrize("n", _FRAME_COUNTS)
@pytest.mark.parametrize("k, y_dim, group", [
    (30, 42, 3),  # K mod 4 = 2: the pair kernel's gemv rounds a slab's last 2 rows apart
    (7, 2, 1),    # signed singleton joints
    (5, 1, 1),    # the sorted pair term
    (2, 42, 3),   # one pair per frame
    (1, 4, 2),    # no energy score, no correlations
])
def test_metrics_report_is_frame_by_frame_bitwise(n, k, y_dim, group):
    """The one metric pass gives the bits of meu_predict, energy_score_sample
    and the per-frame correlation run frame by frame."""
    rng = np.random.default_rng(1000 * n + 10 * k + y_dim)
    outs = rng.normal(size=(n, k, y_dim)) * rng.uniform(0.1, 10.0, size=(n, 1, 1))
    # exactly tied candidates: MEU index 0; with a mean free of roundoff, no joint is defined
    outs[0] = np.round(4.0 * outs[0, :1]) / 4.0
    outs[-1] = outs[-1, :1]  # tied, where the candidate mean may round off the candidates
    gts = rng.normal(size=(n, y_dim))
    distances = (0.5, 1.0, 4.0)
    doc = metrics_report(outs, gts, group, distances)

    meu = [meu_predict(o) for o in outs]
    _, picks, scores, _ = _fold(outs, gts)
    preds = np.array([p for _, p in meu])
    npt.assert_array_equal(picks, preds)
    assert meu[0][0] == 0 and meu[-1][0] == 0
    assert doc["mejee"] == dict(zip(("value", "sem"), mejee(preds, gts, group)))
    assert doc["majee"] == dict(zip(("value", "sem"), majee(preds, gts, group)))
    assert doc["ff"] == {f"{d:g}": ff(preds, gts, group, d) for d in distances}
    if k == 1:
        assert doc["probloss"] is None and doc["pearson"] is None
        return
    spec = LossSpec(beta=1.0)
    frame_scores = [energy_score_sample(o, y, spec) for o, y in zip(outs, gts)]
    npt.assert_array_equal(scores, frame_scores)  # per frame: a mean can hide a one-ulp shift
    expected = mean_sem(frame_scores)
    assert doc["probloss"] == dict(zip(("value", "sem"), expected))
    assert probloss(outs, gts) == expected
    values, defined = _pearson_frame_by_frame(outs, group)
    blocked = pearson_matrix(outs, group)
    npt.assert_array_equal(blocked[1], defined)
    npt.assert_array_equal(blocked[0], values)  # NaN where undefined, on both sides
    assert doc["pearson"] == np.where(defined, values, None).tolist()
    if n == 1:
        assert not defined.any()
    assert not pearson_matrix(outs[-1:], group)[1].any()  # arbitrary values, exactly tied


def test_metrics_report_memory_stays_flat():
    """The metric pass over 2,000 frames of 32 candidates holds only small
    blocks at a time: a (64, 32, 32, 42) pair block alone would take 22 MB."""
    rng = np.random.default_rng(15)
    outs = rng.normal(size=(2000, 32, 42))
    gts = rng.normal(size=(2000, 42))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        metrics_report(outs, gts, 3, (0.5, 1.0, 1.5, 2.0, 3.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 4 * 2**20


def test_warm_training_step_allocates_no_batch_array():
    """A warm desk-shape training step (n = 64, K = 16: the walk forward, the
    two terms, the walk back and the momentum update) writes into the arrays
    of its workspace and of the update, so it allocates less than one
    (n K, 32) activation, 256 KB. What it does allocate is numpy's ufunc
    buffers, up to 8192 values (64 KB) per broadcast operand whatever the
    batch, two of them for the pair term's (n, K, K) comparisons."""
    net = NetConfig(x_dim=1, y_dim=1, z_dim=8, encoder_widths=(32,), decoder_widths=(32, 32))
    objective = ObjectiveConfig(gamma=0.5, num_candidates=16)
    rng = np.random.default_rng(19)
    x, y = gen_conditional_bimodal(64, rng)
    z = draw_noise(net, 64, 16, rng)
    start_params = init_params(net, seed=19)
    mask, flat = start_params.weight_mask(), start_params.to_flat()
    velocity, scratch = np.zeros(flat.size), np.empty(flat.size)
    params, work = NetworkParams(net, flat, copy=False), {}

    def step():
        _, _, value, grads = objective_terms(params, x, y, z, objective, work)
        assert np.isfinite(value) and np.all(np.isfinite(grads))
        sgd_momentum_step(flat, grads, velocity, 0.01, 0.9, 1e-4, mask, scratch)

    step()  # the first step fills the workspace
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 64 * 32 * 16 * 8


def test_full_scale_training_holds_only_its_working_set():
    """At full scale (n 64, K 16, z_dim 200, widths 256, 42 outputs) the
    backward walk writes each layer's delta over that layer's input, which
    is dead once its weight gradient and ReLU mask are taken, and layers of
    one shape share one mask. After two warm steps the arrays held in
    `work` total under 9 MB (a delta array per layer took 12.4 MB), and its
    (n K, 256) arrays are the two layers' own and one mask. Over its walk's
    own inputs the backward walk gives bitwise the gradient it gives over
    copies of them."""
    net = NetConfig(x_dim=1, y_dim=42, z_dim=200, encoder_widths=(256,), decoder_widths=(256, 256))
    objective = ObjectiveConfig(gamma=0.5, num_candidates=16)
    rng = np.random.default_rng(29)
    x, y = rng.uniform(-1.0, 1.0, size=(64, 1)), rng.normal(size=(64, 42))
    work = {}
    z = draw_noise(net, 64, 16, rng, work)  # as the training loop draws it
    flat = init_params(net, seed=29).to_flat()
    velocity, scratch = np.zeros(flat.size), np.empty(flat.size)
    params = NetworkParams(net, flat, copy=False)
    for _ in range(2):
        _, _, _, grads = objective_terms(params, x, y, z, objective, work)
        sgd_momentum_step(flat, grads, velocity, 0.01, 0.9, 0.0, None, scratch)
    assert sum(a.nbytes for a in work.values()) < 9 * 2**20
    assert not any("delta" in key for key in work)
    wide = [a.dtype for a in work.values() if a.shape == (64 * 16, 256)]
    assert sorted(map(str, wide)) == ["bool", "float64", "float64"]  # two layers, one mask

    inputs = []
    for h, out in layer_walk(params, x, z, 16, work):
        inputs.append(h)
    copies = [tuple(a.copy() for a in h) if isinstance(h, tuple) else h.copy() for h in inputs]
    delta = rng.normal(size=out.shape)
    want = walk_back(params, copies, delta)
    got = walk_back(params, inputs, delta, work)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_full_scale_pair_gradient_builds_no_pair_difference_array():
    """One pair gradient at full scale (n 64, K 16, 42 outputs) takes each
    shift's differences in turn: it peaks under 2 MB above its start, where
    one (n, K, K, y_dim) difference array alone would take 5.5 MB."""
    rng = np.random.default_rng(21)
    g = rng.normal(size=(64, 16, 42))
    w = np.ones(42)
    pair_grad(g, w, 1.0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        pair_grad(g, w, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * 2**20
