"""Shared fixtures.

The bimodal ablation (three seeds, four model variants) backs both the
trainer property tests and the ordering acceptance check, so it is built
once per session and its wall time is recorded for the runtime budget.
"""

import time

import numpy as np
import pytest

from disconet import (
    NetConfig,
    ObjectiveConfig,
    TrainConfig,
    gen_conditional_bimodal,
    sample_outputs,
    substream,
    train,
    train_val_split,
)
from disconet.metrics import EVAL_BLOCK

ABLATION_SEEDS = (0, 1, 2)
ABLATION_K = 16
ABLATION_EPOCHS = 120
ABLATION_N = 1024
ABLATION_VAL = 256


def train_bimodal(seed, gamma, noise_enabled, epochs=ABLATION_EPOCHS):
    """One desk-scale training run on the conditional bimodal task."""
    net = NetConfig(
        x_dim=1,
        y_dim=1,
        z_dim=8,
        encoder_widths=(32,),
        decoder_widths=(32, 32),
        noise_enabled=noise_enabled,
    )
    objective = ObjectiveConfig(
        gamma=gamma, num_candidates=ABLATION_K if noise_enabled else 1
    )
    config = TrainConfig(
        objective=objective,
        lr=0.01,
        momentum=0.9,
        batch_size=64,
        epochs=epochs,
        seed=seed,
        val_count=ABLATION_VAL,
    )
    data = gen_conditional_bimodal(ABLATION_N, substream(seed, "abl-data"))
    params, epochs = train(net, config, data)
    (_, _), val = train_val_split(data, ABLATION_VAL, seed)
    return params, val, epochs


def save_csv(path, x, y, comments=()):
    """Write (x, y) rows in the format ``load_csv`` reads, values via repr."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    assert x.ndim == y.ndim == 2 and x.shape[0] == y.shape[0], (x.shape, y.shape)
    lines = [f"# {c}" for c in comments]
    for xi, yi in zip(x, y):
        lines.append(",".join(repr(float(v)) for v in np.concatenate([xi, yi])))
    with open(path, "w", encoding="utf8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def eval_candidates(params, x, k, rng, block=EVAL_BLOCK):
    """The test oracle of eval's sampling rule, as one (N, K, y_dim) array:
    ``sample_outputs`` on `block` frames at a time in frame order, from one
    stream, into one held workspace. ``disconet eval`` scores these blocks as
    it draws them and never holds them all."""
    x = np.asarray(x, dtype=np.float64)
    out, work = np.empty((x.shape[0], k, params.config.y_dim)), {}
    for s in range(0, x.shape[0], block):
        out[s : s + block] = sample_outputs(params, x[s : s + block], k, rng, work)
    return out


def sampled_candidates(params, x, seed, num_candidates=ABLATION_K):
    """(N, K, y_dim) candidates from the "abl-eval" stream, sampled as
    ``disconet eval`` samples them."""
    return eval_candidates(params, x, num_candidates, substream(seed, "abl-eval"))


@pytest.fixture(scope="session")
def bimodal_ablation():
    """Trained models per seed: gamma 0.5, gamma 0.25, gamma 0 with noise,
    and the noise-free pointwise baseline. Returns runs plus build seconds."""
    t0 = time.perf_counter()
    runs = {"g05": [], "g025": [], "g0_noise": [], "base": []}
    for seed in ABLATION_SEEDS:
        runs["g05"].append(train_bimodal(seed, 0.5, True))
        runs["g025"].append(train_bimodal(seed, 0.25, True))
        runs["g0_noise"].append(train_bimodal(seed, 0.0, True))
        runs["base"].append(train_bimodal(seed, 0.0, False))
    return {"runs": runs, "seeds": ABLATION_SEEDS, "seconds": time.perf_counter() - t0}


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
