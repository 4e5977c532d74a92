"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with the measured quantity and its budget. Every test
is deterministic; the slow entries (5 and 6) share their budgets with the
session fixtures that back them.
"""

import json
import time

import numpy as np
import pytest

from disconet import (
    DiscreteDistribution,
    LossSpec,
    NetConfig,
    NetworkParams,
    ObjectiveConfig,
    delta,
    disco_objective,
    div_qq_hat,
    divergence_discrete,
    energy_score_sample,
    ff,
    grad_check,
    init_params,
    majee,
    mejee,
    meu_predict,
    objective_terms,
    pearson_matrix,
    substream,
    toy_cross_table,
)
from disconet.cli import main as cli_main
from disconet.metrics import base_candidates, probloss
from tests.conftest import sampled_candidates


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gradient_correctness():
    """The training gradient of the sampled objective (objective_terms)
    matches central finite differences on the two-layer generator across
    gamma and beta, with two outputs and with one, where beta = 1 takes the
    sorted pair form."""
    t0 = time.perf_counter()
    n, k = 4, 3
    data_rng = substream(0, "acc1-data")
    x = data_rng.uniform(-1.0, 1.0, size=(n, 2))
    y = data_rng.uniform(-1.0, 1.0, size=(n, 2))
    z = data_rng.uniform(-1.0, 1.0, size=(n, k, 4))
    targets = {2: y, 1: data_rng.uniform(-1.0, 1.0, size=(n, 1))}
    worst = 0.0
    for y_dim in (2, 1):
        net = NetConfig(x_dim=2, y_dim=y_dim, z_dim=4, encoder_widths=(), decoder_widths=(6,))
        params = init_params(net, seed=0)
        for gamma in (0.0, 0.25, 0.5):
            for beta in (0.5, 1.0, 1.5):
                cfg = ObjectiveConfig(gamma=gamma, num_candidates=k, loss=LossSpec(beta=beta))

                def f(flat):
                    p = NetworkParams.from_flat(net, flat)
                    _, _, value, grad = objective_terms(p, x, targets[y_dim], z, cfg)
                    return value, grad

                worst = max(worst, grad_check(f, params.to_flat()))
    dt = time.perf_counter() - t0
    _report(1, "gradient correctness", worst < 1e-4 and dt < 10.0,
            f"max_rel_err={worst:.3e} (tol 1e-4), {dt:.1f}s (budget 10s)")


def test_criterion_2_estimator_unbiasedness():
    """div_qq_hat over lookup-generator draws is an unbiased estimate of
    the exact pairwise expectation for a 5-point discrete model."""
    t0 = time.perf_counter()
    support = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.1], [2.0, 1.0], [1.2, 2.2]])
    probs = np.array([0.35, 0.25, 0.2, 0.15, 0.05])
    spec = LossSpec()
    # brute-force double sum over all index pairs
    exact = 0.0
    for i in range(5):
        for j in range(5):
            exact += probs[i] * probs[j] * delta(spec, support[i], support[j])
    cum = np.cumsum(probs)
    rng = substream(0, "acc2-draws")
    k = 3
    trials = 10_000
    vals = np.empty(trials)
    for t in range(trials):
        idx = np.searchsorted(cum, rng.random(k))  # lookup generator
        vals[t] = div_qq_hat(support[idx][None], spec)
    se = vals.std(ddof=1) / np.sqrt(trials)
    gap = abs(vals.mean() - exact)
    dt = time.perf_counter() - t0
    _report(2, "estimator unbiasedness", gap < 3 * se and dt < 30.0,
            f"|mean-exact|={gap:.2e} vs 3*SE={3 * se:.2e}, {dt:.1f}s (budget 30s)")


def test_criterion_3_strict_propriety():
    """The score divergence separates distinct discrete distributions and
    vanishes identically at equality."""
    t0 = time.perf_counter()
    rng = substream(0, "acc3-pairs")
    spec = LossSpec()
    min_distinct = np.inf
    max_self = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 5))
        support = rng.normal(size=(m, 2))
        while True:
            pa = rng.uniform(0.05, 1.0, size=m)
            pa /= pa.sum()
            pb = rng.uniform(0.05, 1.0, size=m)
            pb /= pb.sum()
            if np.abs(pa - pb).sum() >= 0.05:
                break
        da = DiscreteDistribution(support, pa)
        db = DiscreteDistribution(support, pb)
        min_distinct = min(min_distinct, divergence_discrete(da, db, spec))
        max_self = max(max_self, abs(divergence_discrete(da, da, spec)))
    dt = time.perf_counter() - t0
    ok = min_distinct > 1e-10 and max_self < 1e-12 and dt < 10.0
    _report(3, "strict propriety", ok,
            f"min divergence p!=q {min_distinct:.2e} (floor 1e-10), "
            f"max |divergence| p=q {max_self:.2e} (tol 1e-12), {dt:.1f}s (budget 10s)")


def test_criterion_4_energy_score_identity():
    """The gamma = 1/2 objective is the mean sampled energy score."""
    t0 = time.perf_counter()
    rng = substream(0, "acc4-fixtures")
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 4))
        y = rng.normal(size=(n, dim))
        outs = rng.normal(size=(n, k, dim))
        cfg = ObjectiveConfig(gamma=0.5, num_candidates=k)
        obj = disco_objective(y, outs, cfg)
        scores = float(np.mean([energy_score_sample(o, yn) for o, yn in zip(outs, y)]))
        worst = max(worst, abs(obj - scores))
    dt = time.perf_counter() - t0
    _report(4, "energy-score identity", worst <= 1e-12 and dt < 5.0,
            f"max |objective - mean score|={worst:.1e} (tol 1e-12), {dt:.1f}s (budget 5s)")


def test_criterion_5_toy_cross_table_ordering():
    """Fitting under each weighted loss wins its own evaluation column in
    the seed-aggregated 2x2 cross table."""
    t0 = time.perf_counter()
    result = toy_cross_table(seeds=(0, 1, 2, 3, 4))
    agg = result["aggregate"]
    margin1 = agg["dim2"]["dim1"][0] - agg["dim1"]["dim1"][0]
    margin2 = agg["dim1"]["dim2"][0] - agg["dim2"]["dim2"][0]
    dt = time.perf_counter() - t0
    ok = result["diagonal_dominance"] and margin1 > 0.0 and margin2 > 0.0 and dt < 300.0
    _report(5, "toy cross-table ordering", ok,
            f"column margins dim1 {margin1:+.4f}, dim2 {margin2:+.4f} "
            f"(both must be > 0), {dt:.0f}s (budget 300s)")


BASE_SIGMA_FRACTIONS = (0.01, 0.05, 0.1)


def test_criterion_6_ablation_ordering(bimodal_ablation):
    """Trained with diversity pressure, the sampler scores a better median
    validation ProbLoss than the same net without pressure and than the
    jittered pointwise baseline at any jitter scale."""
    t0 = time.perf_counter()
    runs = bimodal_ablation["runs"]
    seeds = bimodal_ablation["seeds"]
    scores = {"g05": [], "g0_noise": []}
    base_by_sigma = {f: [] for f in BASE_SIGMA_FRACTIONS}
    for i, seed in enumerate(seeds):
        for name in ("g05", "g0_noise"):
            params, (x_val, y_val), _ = runs[name][i]
            outs = sampled_candidates(params, x_val, seed)
            scores[name].append(probloss(outs, y_val)[0])
        params, (x_val, y_val), _ = runs["base"][i]
        from disconet import predict_rows

        point = predict_rows(params, x_val)
        y_scale = float(y_val.std())
        jitter_rng = substream(seed, "acc6-jitter")
        for frac in BASE_SIGMA_FRACTIONS:
            outs = base_candidates(point, 16, frac * y_scale, jitter_rng)
            base_by_sigma[frac].append(probloss(outs, y_val)[0])
    med_g05 = float(np.median(scores["g05"]))
    med_g0 = float(np.median(scores["g0_noise"]))
    med_base = min(float(np.median(v)) for v in base_by_sigma.values())
    marginal = time.perf_counter() - t0
    total = bimodal_ablation["seconds"] + marginal
    ok = med_g05 < med_g0 and med_g05 < med_base and total < 600.0
    _report(6, "ablation ordering", ok,
            f"median ProbLoss: diversity {med_g05:.4f} < no-pressure {med_g0:.4f} "
            f"and < best baseline {med_base:.4f}, {total:.0f}s incl. training (budget 600s)")


def test_criterion_7_meu_oracle():
    """meu_predict agrees with exhaustive pairwise-sum minimization on
    lattice-valued candidates where exact ties are common."""
    t0 = time.perf_counter()
    rng = substream(0, "acc7-sets")
    spec = LossSpec()
    mismatches = 0
    ties_seen = 0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        cands = rng.integers(-2, 3, size=(k, dim)).astype(np.float64)
        # oracle: strict < scan over explicitly summed pair losses
        best_idx = 0
        best_total = None
        totals = []
        for a in range(k):
            total = 0.0
            for b in range(k):
                total += delta(spec, cands[a], cands[b])
            totals.append(total)
            if best_total is None or total < best_total:
                best_total = total
                best_idx = a
        ties_seen += int(sum(t == best_total for t in totals) > 1)
        idx, out = meu_predict(cands, spec)
        if idx != best_idx or not np.array_equal(out, cands[best_idx]):
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and ties_seen > 0 and dt < 5.0
    _report(7, "MEU oracle", ok,
            f"mismatches {mismatches}/1000, tied sets exercised {ties_seen}, "
            f"{dt:.1f}s (budget 5s)")


def test_criterion_8_metric_invariants():
    """FF is monotone in the distance, MeJEE never exceeds MaJEE, and the
    correlation matrix handles its diagonal and degenerate joints."""
    t0 = time.perf_counter()
    rng = substream(0, "acc8-frames")
    group = 2  # three joints of two coordinates
    ff_monotone = True
    order_ok = True
    for _ in range(50):
        frames = int(rng.integers(1, 8))
        preds = rng.normal(size=(frames, 6))
        gts = rng.normal(size=(frames, 6))
        fracs = [ff(preds, gts, group, d) for d in (0.1, 0.5, 1.0, 2.0, 5.0)]
        ff_monotone &= all(a <= b for a, b in zip(fracs, fracs[1:]))
        for fr in range(frames):
            me = mejee(preds[fr : fr + 1], gts[fr : fr + 1], group)[0]
            ma = majee(preds[fr : fr + 1], gts[fr : fr + 1], group)[0]
            order_ok &= me <= ma + 1e-15
    # one live joint, one frozen joint
    outs = np.column_stack([np.arange(4.0), np.full(4, 2.0)])[None]
    values, defined = pearson_matrix(outs, 1)
    diag_ok = values[0, 0] == 1.0 and defined[0, 0]
    undef_ok = not defined[1, 1] and not defined[0, 1] and np.isnan(values[1, 1])
    # 30 exactly tied candidates of arbitrary values: their mean can round off
    # them, and that offset is no spread
    tied = np.repeat(rng.normal(size=(1, 1, 42)), 30, axis=1)
    undef_ok &= not pearson_matrix(tied, 3)[1].any()
    dt = time.perf_counter() - t0
    ok = ff_monotone and order_ok and diag_ok and undef_ok and dt < 5.0
    _report(8, "metric invariants", ok,
            f"FF monotone {ff_monotone}, MeJEE<=MaJEE {order_ok}, "
            f"diagonal/undefined handling {diag_ok and undef_ok}, {dt:.1f}s (budget 5s)")


def test_criterion_9_cli_determinism(tmp_path):
    """Every subcommand rerun with the same config and seed emits
    byte-identical CSV and JSON artifacts."""
    t0 = time.perf_counter()

    def write(name, doc):
        doc = {"schema_version": 1, **doc}
        p = tmp_path / name
        p.write_text(json.dumps(doc, indent=2) + "\n")
        return str(p)

    net = {"x_dim": 1, "y_dim": 1, "z_dim": 2, "encoder_widths": [4],
           "decoder_widths": [4]}
    train_cfg = write("train.json", {
        "net": net,
        "objective": {"gamma": 0.5, "num_candidates": 3},
        "train": {"epochs": 2, "batch_size": 16, "seed": 0, "val_count": 8},
        "data": {"generator": "conditional_bimodal", "n": 48},
    })
    toy_cfg = write("toy.json", {
        "toy": {"seeds": [0], "n_train": 40, "n_test": 40, "m": 8,
                "mu_values": [-1.4, 0.0, 1.4], "sigma_values": [0.3, 0.9, 1.5]},
    })
    eval_cfg = write("eval.json", {
        "data": {"generator": "conditional_bimodal", "n": 48},
        "eval": {"num_candidates": 3, "distances": [0.5, 1.0]},
    })
    sweep_cfg = write("sweep.json", {
        "net": net,
        "objective": {"gamma": 0.5, "num_candidates": 3},
        "train": {"epochs": 2, "batch_size": 16, "seed": 0, "val_count": 8},
        "data": {"generator": "conditional_bimodal", "n": 48},
        "sweep": {"seeds": [0], "l2_values": [0.0001, 0.01]},
    })

    identical = True
    compared = 0
    runs = (
        ("toy", ["toy", "--config", toy_cfg], None),
        ("train", ["train", "--config", train_cfg], None),
        ("eval", ["eval", "--config", eval_cfg], "needs_ckpt"),
        ("sweep", ["sweep", "--config", sweep_cfg], None),
    )
    ckpt = None
    for name, argv, extra in runs:
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        for out in (out_a, out_b):
            args = argv + ["--out", str(out)]
            if extra == "needs_ckpt":
                args += ["--checkpoint", str(ckpt)]
            code = cli_main(args)
            assert code in (0, 1), (name, code)
        if name == "train":
            ckpt = out_a / "checkpoint.txt"
        for f in sorted(out_a.iterdir()):
            compared += 1
            if f.read_bytes() != (out_b / f.name).read_bytes():
                identical = False
    dt = time.perf_counter() - t0
    _report(9, "CLI determinism", identical and compared >= 8,
            f"{compared} artifacts byte-compared across reruns, all identical: "
            f"{identical}, {dt:.1f}s")
