import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from disconet import (
    ContractError,
    DimensionError,
    Graph,
    NetConfig,
    NetworkParams,
    ParseError,
    bind_params,
    forward_rows,
    init_params,
    pearson_matrix,
    predict_rows,
    sample_candidates,
    sample_outputs,
)
from disconet.metrics import EVAL_BLOCK
from tests.conftest import eval_candidates
from disconet.network import draw_noise, layer_walk


CFG = NetConfig(x_dim=2, y_dim=2, z_dim=3, encoder_widths=(5,), decoder_widths=(4,))


def test_layer_dims_and_param_count():
    # Manually calculated: encoder 2->5, concat noise 3 makes 8, decoder
    # 8->4, output 4->2.  With one bias row per layer:
    # (2+1)*5 + (8+1)*4 + (4+1)*2 = 15 + 36 + 10 = 61.
    assert CFG.layer_dims() == [(2, 5), (8, 4), (4, 2)]
    assert CFG.param_count() == 61
    assert CFG.noise_dim == 3

    plain = NetConfig(x_dim=2, y_dim=1, z_dim=3, encoder_widths=(),
                      decoder_widths=(), noise_enabled=False)
    assert plain.layer_dims() == [(2, 1)]
    assert plain.param_count() == 3
    assert plain.noise_dim == 0


def test_config_validation():
    with pytest.raises(ContractError):
        NetConfig(x_dim=0, y_dim=1)
    with pytest.raises(ContractError):
        NetConfig(x_dim=1, y_dim=1, z_dim=0)
    with pytest.raises(ContractError):
        NetConfig(x_dim=1, y_dim=1, encoder_widths=(0,))
    with pytest.raises(ContractError, match="z_dim must be >= 0"):
        NetConfig(x_dim=1, y_dim=1, z_dim=-5, noise_enabled=False)
    assert NetConfig(x_dim=1, y_dim=1, z_dim=0, noise_enabled=False).noise_dim == 0


def test_config_round_trip():
    d = CFG.to_dict()
    assert NetConfig.from_dict(d) == CFG


def test_init_deterministic_and_bounded():
    p1 = init_params(CFG, seed=11)
    p2 = init_params(CFG, seed=11)
    npt.assert_array_equal(p1.to_flat(), p2.to_flat())
    p3 = init_params(CFG, seed=12)
    assert not np.array_equal(p1.to_flat(), p3.to_flat())

    mask = p1.weight_mask()
    flat = p1.to_flat()
    # biases start at zero, weights inside the fan-scaled interval
    npt.assert_array_equal(flat[~mask], 0.0)
    offset = 0
    for fi, fo in CFG.layer_dims():
        a = np.sqrt(6.0 / (fi + fo))
        w = flat[offset:offset + fi * fo]
        assert np.all(np.abs(w) <= a)
        offset += fi * fo + fo


def test_flat_round_trip():
    p = init_params(CFG, seed=3)
    q = NetworkParams.from_flat(CFG, p.to_flat())
    npt.assert_array_equal(p.to_flat(), q.to_flat())
    with pytest.raises(DimensionError):
        NetworkParams.from_flat(CFG, np.zeros(60))


def test_params_are_one_read_only_vector():
    p = init_params(CFG, seed=4)
    assert not p.flat.flags.writeable
    for w, b in p.layers:
        for view in (w, b):
            assert np.shares_memory(view, p.flat) and not view.flags.writeable

    # the layout: per layer the row-major W, then b
    index = NetworkParams.from_flat(CFG, np.arange(CFG.param_count()))
    bounds = [(0, 10, 15), (15, 47, 51), (51, 59, 61)]
    for (w, b), (fi, fo), (start, mid, end) in zip(index.layers, CFG.layer_dims(), bounds):
        npt.assert_array_equal(w, np.arange(start, mid).reshape(fi, fo))
        npt.assert_array_equal(b, np.arange(mid, end))

    # to_flat is a writable copy, and from_flat keeps none of the caller's array
    before = p.to_flat()
    copy = p.to_flat()
    copy[:] = 7.0
    npt.assert_array_equal(p.flat, before)
    q = NetworkParams.from_flat(CFG, copy)
    assert not np.shares_memory(q.flat, copy)
    copy[:] = 0.0
    npt.assert_array_equal(q.flat, 7.0)

    # weight_mask is True exactly on the W views
    in_w = np.zeros(CFG.param_count(), dtype=bool)
    for w, _ in index.layers:
        in_w[w.ravel().astype(int)] = True
    npt.assert_array_equal(p.weight_mask(), in_w)


def test_save_load_round_trip(tmp_path):
    p = init_params(CFG, seed=5)
    path = tmp_path / "params.txt"
    p.save(path)
    q = NetworkParams.load(path)
    assert q.config == CFG
    npt.assert_array_equal(p.to_flat(), q.to_flat())

    # blank lines are skipped, by the line-by-line parse the one-pass parse falls back to
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + ["", "  "] + lines[3:]) + "\n\n")
    npt.assert_array_equal(NetworkParams.load(path).to_flat(), p.to_flat())

    # every value line is 17 significant digits, and the edge values come back
    # bit for bit: the sign of -0.0, subnormals, the extremes, inexact decimals
    edges = np.resize(EDGE_VALUES, CFG.param_count())
    NetworkParams(CFG, edges).save(path)
    assert path.read_text().splitlines()[1:] == ["%.17g" % v for v in edges.tolist()]
    assert_bitwise(NetworkParams.load(path).flat, edges)


EDGE_VALUES = [
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    0.1,
    1 / 3,
    1e-5,
    1e16,
    123456789.0,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]


def assert_bitwise(a, b):
    assert np.asarray(a).view(np.uint64).tolist() == np.asarray(b).view(np.uint64).tolist()


@pytest.mark.parametrize("values", ["init", "edges"])
def test_load_reads_repr_checkpoints(tmp_path, values):
    # a version-1 checkpoint whose values were written with repr, one per line
    p = init_params(CFG, seed=5)
    flat = p.flat if values == "init" else np.resize(EDGE_VALUES, CFG.param_count())
    path = tmp_path / "params.txt"
    p.save(path)
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\n" + "\n".join(map(repr, flat.tolist())) + "\n")
    q = NetworkParams.load(path)
    assert q.config == CFG
    assert_bitwise(q.flat, flat)


def test_load_errors(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        NetworkParams.load(path)

    path.write_text("not json\n")
    with pytest.raises(ParseError, match="line 1"):
        NetworkParams.load(path)

    p = init_params(CFG, seed=5)
    good = tmp_path / "good.txt"
    p.save(good)
    lines = good.read_text().splitlines()

    broken = dict_replace(lines[0], '"version": 1', '"version": 9')
    path.write_text("\n".join([broken] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match="version"):
        NetworkParams.load(path)

    path.write_text("\n".join([lines[0], "0.5", "oops"] + lines[3:]) + "\n")
    with pytest.raises(ParseError, match="line 3"):
        NetworkParams.load(path)

    # float() reads "1_0" as 10.0
    path.write_text("\n".join([lines[0], "0.5", "1_0"] + lines[3:]) + "\n")
    with pytest.raises(ParseError, match="line 3: not a number: '1_0'"):
        NetworkParams.load(path)

    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="expected 61 values, found 60"):
        NetworkParams.load(path)


def test_load_counts_lines_as_text_mode_does(tmp_path):
    """A form feed at the end of a value line is white space around its
    number, not a line end: ``str.splitlines`` would end a line there and
    name the bad value on line 5 as line 6."""
    p = init_params(CFG, seed=5)
    good = tmp_path / "good.txt"
    p.save(good)
    lines = good.read_text().splitlines()
    path = tmp_path / "ff.txt"
    lines[1] += "\x0c"
    path.write_text("\n".join(lines) + "\n")
    assert_bitwise(NetworkParams.load(path).flat, p.flat)
    lines[4] = "oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 5: not a number: 'oops'"):
        NetworkParams.load(path)


def dict_replace(s, old, new):
    assert old in s
    return s.replace(old, new)


def test_forward_matches_predict():
    p = init_params(CFG, seed=7)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 2))
    z = rng.normal(size=(4, 3))

    g = Graph()
    node = forward_rows(g, bind_params(g, p), x, z)
    npt.assert_allclose(np.asarray(g.value(node)), predict_rows(p, x, z),
                        rtol=1e-12, atol=1e-15)

    # a single example is the one-row case of the same pass
    g = Graph()
    node = forward_rows(g, bind_params(g, p), x[:1], z[:1])
    npt.assert_allclose(np.asarray(g.value(node)), predict_rows(p, x[:1], z[:1]),
                        rtol=1e-12, atol=1e-15)


def test_layer_walk_pairs():
    """One (input, pre-activation) pair per dense layer: the join layer's
    input is the pair (h, z) and its pre-activation is [h, z] @ W + b, every
    later input is the ReLU of the previous pre-activation, and the last
    pre-activation is the output predict_rows returns. The ReLU is taken in
    place, so each pre-activation is read before the walk goes on."""
    p = init_params(CFG, seed=7)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 2))
    z = rng.normal(size=(4, 3))
    walk = list(layer_walk(p, x, z[:, None, :]))
    pairs = [(h, pre.copy()) for h, pre in layer_walk(p, x, z[:, None, :])]
    assert walk[2][0] is walk[1][1]  # the next input is the pre-activation's own array
    (h, zj), pre = pairs[1]
    assert [h.shape[1] + zj.shape[1], pre.shape[1]] == list(CFG.layer_dims()[1])
    assert [(h.shape[1], pre.shape[1]) for h, pre in pairs[::2]] == CFG.layer_dims()[::2]
    npt.assert_array_equal(pairs[0][0], x)
    npt.assert_array_equal(zj, z)
    w, b = p.layers[1]
    npt.assert_allclose(pre, np.hstack([h, zj]) @ w + b, rtol=1e-13, atol=1e-15)
    npt.assert_array_equal(h, np.maximum(pairs[0][1], 0.0))
    npt.assert_array_equal(pairs[2][0], np.maximum(pre, 0.0))
    npt.assert_array_equal(pairs[-1][1], predict_rows(p, x, z))

    # with noise disabled any z is ignored, whatever its shape
    plain = init_params(NetConfig(**{**CFG.to_dict(), "noise_enabled": False}), seed=7)
    npt.assert_array_equal(predict_rows(plain, x, np.zeros((4, 0))), predict_rows(plain, x))


@pytest.mark.parametrize("noise_enabled", [True, False], ids=["noise", "noise-disabled"])
def test_layer_walk_row_counts(noise_enabled):
    """The layers before the noise join run once per input and the layers
    after it once per candidate: n rows up to the join, whose input pairs
    the n-row h with the n K-row z, then n K rows, example-major. The last
    pre-activation is what sample_outputs returns for the same draws."""
    cfg = NetConfig(x_dim=2, y_dim=2, z_dim=3, encoder_widths=(5, 6), decoder_widths=(4, 3),
                    noise_enabled=noise_enabled)
    p = init_params(cfg, seed=8)
    n, k = 3, 4
    x = np.random.default_rng(0).normal(size=(n, 2))
    z = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, k, 3))
    # the ReLU is taken in place, so each pre-activation is copied as it is yielded
    pairs = [(h, pre.copy()) for h, pre in layer_walk(p, x, z, k)]
    assert len(pairs) == len(cfg.layer_dims())
    for h, pre in pairs[:2]:
        assert h.shape[0] == pre.shape[0] == n
    (h, zj), pre = pairs[2]
    assert h.shape[0] == n and pre.shape[0] == n * k
    if noise_enabled:
        npt.assert_array_equal(zj, z.reshape(n * k, 3))
    else:
        # the noise-free walk joins noise of width zero
        assert zj.shape == (n * k, 0)
        npt.assert_array_equal(pre.reshape(n, k, -1), np.stack([pre[::k]] * k, axis=1))
    for h, pre in pairs[3:]:
        assert h.shape[0] == pre.shape[0] == n * k
    outs = sample_outputs(p, x, k, np.random.default_rng(5))
    npt.assert_array_equal(pairs[-1][1], outs.reshape(n * k, -1))


def test_noise_required_when_enabled():
    p = init_params(CFG, seed=7)
    with pytest.raises(ContractError):
        predict_rows(p, np.zeros((2, 2)))
    g = Graph()
    with pytest.raises(ContractError):
        forward_rows(g, bind_params(g, p), np.zeros((2, 2)))


def test_wrong_input_dims_rejected():
    p = init_params(CFG, seed=7)
    z = np.zeros((2, 3))
    with pytest.raises(DimensionError):
        predict_rows(p, np.zeros((2, 3)), z)
    with pytest.raises(DimensionError):
        predict_rows(p, np.zeros((2, 2)), np.zeros((2, 4)))


def test_piecewise_linear_in_noise():
    """With ReLU activations the map z -> output is affine wherever no
    unit changes sign, so a short segment has vanishing second difference."""
    p = init_params(CFG, seed=21)
    x = np.array([0.3, -0.7])
    rng = np.random.default_rng(4)
    z0 = rng.normal(size=3)
    d = rng.normal(size=3)
    t = 1e-4
    f0, f1, f2 = predict_rows(p, np.tile(x, (3, 1)), z0 + np.outer([0.0, t, 2 * t], d))
    npt.assert_allclose(f2 - f1, f1 - f0, atol=1e-12)


def test_noise_disabled_candidates_constant():
    cfg = NetConfig(x_dim=2, y_dim=2, z_dim=3, encoder_widths=(5,),
                    decoder_widths=(4,), noise_enabled=False)
    p = init_params(cfg, seed=9)
    rng = np.random.default_rng(2)
    state_before = rng.bit_generator.state
    outs = sample_candidates(p, np.array([0.5, -0.5]), 6, rng)
    # all candidates identical, and the generator is not consumed
    assert outs.shape == (6, 2)
    assert np.ptp(outs, axis=0).max() == 0.0
    assert rng.bit_generator.state == state_before
    # replayed as the one-candidate walk repeated K times: a K-row walk
    # can round identical rows apart
    one = list(layer_walk(p, np.array([[0.5, -0.5]]), None, 1))[-1][1]
    npt.assert_array_equal(outs, np.repeat(one, 6, axis=0))


@pytest.mark.parametrize("k", [5, 30])
@pytest.mark.parametrize("sampler", [sample_outputs, eval_candidates], ids=["outputs", "frames"])
def test_noise_free_candidates_coincide_at_full_scale(sampler, k):
    """A noise-free net's K candidates are one output repeated, bitwise, at
    paper scale too, where a K-row pass through BLAS rounds identical rows
    apart; so no correlation between joints of 3 coordinates is defined."""
    cfg = NetConfig(x_dim=1, y_dim=42, z_dim=200, encoder_widths=(256,),
                    decoder_widths=(256, 256), noise_enabled=False)
    x = np.random.default_rng(6).uniform(-1.0, 1.0, size=(200, 1))
    outs = sampler(init_params(cfg, seed=1), x, k, np.random.default_rng(0))
    assert outs.shape == (200, k, 42)
    assert not (outs != outs[:, :1]).any()
    assert not pearson_matrix(outs, 3)[1].any()


def test_draw_noise_law_and_zero_width():
    """The noise law: i.i.d. uniform on [-1, 1] in row order, bitwise
    ``rng.uniform(-1, 1)`` with the stream left where it leaves it, with or
    without a workspace, whose array holds until the next draw of its
    shape; a noise-free net's draw has width zero, leaves the stream where
    it was and holds nothing."""
    rng = np.random.default_rng(3)
    z = draw_noise(CFG, 2, 4, rng)
    npt.assert_array_equal(z, np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 4, 3)))
    work = {}
    for n, k, z_dim in ((16, 32, 200), (3, 7, 8), (16, 32, 200), (4, 0, 3)):
        net = NetConfig(**{**CFG.to_dict(), "z_dim": z_dim})
        for held in (None, work):
            rng, ref = np.random.default_rng(n + k), np.random.default_rng(n + k)
            z = draw_noise(net, n, k, rng, held)
            npt.assert_array_equal(z, ref.uniform(-1.0, 1.0, size=(n, k, z_dim)))
            assert rng.bit_generator.state == ref.bit_generator.state
        assert work[(n, k, "noise")] is z
    plain = NetConfig(**{**CFG.to_dict(), "noise_enabled": False})
    state = rng.bit_generator.state
    assert draw_noise(plain, 2, 4, rng, work).shape == (2, 4, 0)
    assert rng.bit_generator.state == state
    assert (2, 4, "noise") not in work


def test_sample_candidates_shapes_and_noises():
    p = init_params(CFG, seed=9)
    outs = sample_candidates(p, np.array([0.5, -0.5]), 4, np.random.default_rng(2))
    assert outs.shape == (4, 2)
    # outputs reproduce from the noise replayed from the same seeded stream:
    # one (K, z_dim) block of uniform draws on [-1, 1]
    z = np.random.default_rng(2).uniform(-1.0, 1.0, size=(1, 4, 3))
    npt.assert_array_equal(outs, list(layer_walk(p, np.array([[0.5, -0.5]]), z, 4))[-1][1])


_FRAME_NETS = {
    "full_two_encoders": NetConfig(x_dim=3, y_dim=42, z_dim=200, encoder_widths=(256, 256),
                                   decoder_widths=(256, 256)),
    "noise_free": NetConfig(x_dim=3, y_dim=42, z_dim=200, encoder_widths=(64,),
                            decoder_widths=(64,), noise_enabled=False),
    "desk": NetConfig(x_dim=1, y_dim=1, z_dim=8, encoder_widths=(32,), decoder_widths=(32, 32)),
    "join_is_output": NetConfig(x_dim=2, y_dim=3, z_dim=4, encoder_widths=(), decoder_widths=()),
}


def _rng_after_blocks(cfg, n, k, block, seed):
    """A generator seeded `seed` after one ``draw_noise`` per block."""
    rng = np.random.default_rng(seed)
    for s in range(0, n, block):
        draw_noise(cfg, min(block, n - s), k, rng)
    return rng


@pytest.mark.parametrize("name", sorted(set(_FRAME_NETS) - {"noise_free"}))
def test_eval_candidates_at_k32_do_not_depend_on_the_block(name):
    """At K = 32 a frame's 32 rows round alike in blocks of eval's size, of
    larger sizes and of all 67 frames at once (tails of 3 and 16 frames
    included), and `rng` ends where one noise draw per block leaves it. A
    tail of one or two frames can round apart, as measured on OpenBLAS: a
    one-row encoder product takes the matrix-vector path, and the full-scale
    output layer rounds 64 rows apart from the same rows in a taller
    product. So eval's block size is a constant."""
    cfg = _FRAME_NETS[name]
    p = init_params(cfg, seed=4)
    n, k = 67, 32
    x = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, cfg.x_dim))
    rng = np.random.default_rng(8)
    outs = eval_candidates(p, x, k, rng)
    assert rng.random() == _rng_after_blocks(cfg, n, k, EVAL_BLOCK, 8).random()
    for block in (EVAL_BLOCK + 1, 2 * EVAL_BLOCK, 64, n):
        rng = np.random.default_rng(8)
        npt.assert_array_equal(eval_candidates(p, x, k, rng, block), outs)
        assert rng.random() == _rng_after_blocks(cfg, n, k, block, 8).random()


@pytest.mark.parametrize("k", [1, 2, 7, 32])
@pytest.mark.parametrize("name", sorted(_FRAME_NETS))
def test_sample_frames_matches_per_frame_loop(name, k):
    """Eval's sampling rule (the oracle `eval_candidates`) is deterministic, and
    its candidates agree with sampling one frame at a time to 1e-12
    relative, whether N falls below, on or off the block size, and `rng`
    ends where one noise draw per block leaves it.
    They are not bitwise the loop's: a block walks its frames' rows in one
    product per layer, and BLAS rounds a row by the product it falls in. At
    K = 7, and on the noise-free net, which walks one row per frame, the
    bits change with the block size as well, unlike at K = 32 (above)."""
    cfg = _FRAME_NETS[name]
    p = init_params(cfg, seed=4)
    for n in (1, EVAL_BLOCK, EVAL_BLOCK + 1, 67):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n, cfg.x_dim))
        rng, looped = np.random.default_rng(8), np.random.default_rng(8)
        outs = eval_candidates(p, x, k, rng)
        assert rng.random() == _rng_after_blocks(cfg, n, k, EVAL_BLOCK, 8).random()
        npt.assert_array_equal(eval_candidates(p, x, k, np.random.default_rng(8)), outs)
        expected = np.stack([sample_outputs(p, x[i : i + 1], k, looped)[0] for i in range(n)])
        assert np.abs(outs - expected).max() <= 1e-12 * np.abs(expected).max()


def test_eval_candidates_memory_stays_flat():
    """Eval's sampling rule, on 2,000 frames of 32 candidates of the
    full-scale net, holds the output and blocks of EVAL_BLOCK frames: one
    (2000 * 32, 256) activation array alone would take 131 MB."""
    full = NetConfig(x_dim=1, y_dim=42, z_dim=200, encoder_widths=(256,), decoder_widths=(256, 256))
    p = init_params(full, seed=1)
    x = np.random.default_rng(16).uniform(-1.0, 1.0, size=(2000, 1))
    rng = np.random.default_rng(17)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        outs = eval_candidates(p, x, 32, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outs.shape == (2000, 32, 42)
    assert peak - start < outs.nbytes + 4 * 2**20


def test_eval_candidates_reject_bad_input():
    """Eval's sampling rule rejects K = 0 and a wrong `x_dim`."""
    p = init_params(CFG, seed=9)
    with pytest.raises(ContractError):
        eval_candidates(p, np.zeros((3, 2)), 0, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        eval_candidates(p, np.zeros((3, 5)), 2, np.random.default_rng(0))
