"""The evaluation toolkit on one trained sampler.

Pointwise quality is scored after reducing the candidate set to one
prediction (maximum expected utility); distributional quality is scored
directly on the candidates (ProbLoss, per-joint correlations). This demo
trains a small sampler on the bimodal task and walks through the report.
"""

import numpy as np

from disconet import (
    NetConfig,
    ObjectiveConfig,
    TrainConfig,
    gen_conditional_bimodal,
    metrics_report,
    meu_predict,
    report_rows,
    sample_outputs,
    substream,
    train,
    train_val_split,
)

net = NetConfig(x_dim=1, y_dim=1, z_dim=8, encoder_widths=(32,), decoder_widths=(32, 32))
cfg = TrainConfig(
    objective=ObjectiveConfig(gamma=0.5, num_candidates=16),
    epochs=60,
    seed=0,
    val_count=256,
)
data = gen_conditional_bimodal(1024, substream(0, "demo-eval-data"))
params, _ = train(net, cfg, data)
_, (x_val, y_val) = train_val_split(data, 256, seed=0)

# K candidates per validation input, as one (N, K, y_dim) array
outs = sample_outputs(params, x_val, 16, substream(0, "demo-eval-draws"))

# MEU picks the candidate closest to the rest of the set under the task
# loss, so the pick lands where the sampled mass concentrates
idx, pick = meu_predict(outs[0])
print(f"input {x_val[0, 0]:+.2f}: MEU picked candidate {idx} at {pick[0]:+.2f}")

# one output coordinate per joint; the report is the plain document that
# `disconet eval` writes to metrics.json
report = metrics_report(outs, y_val, 1, distances=(0.1, 0.25, 0.5, 1.0))

for name in ("probloss", "mejee", "majee"):
    print(f"{name:8s} {report[name]['value']:.4f} ± {report[name]['sem']:.4f}")
for label, fraction in report["ff"].items():
    print(f"FF(d={label})  {fraction:.3f}")

# On a bimodal target the pointwise errors look large whenever the pick
# lands on the branch the ground truth did not take; ProbLoss is the
# number that rewards covering both branches.
print(f"\npearson diagonal: {report['pearson'][0][0]} (None where undefined)")
print(f"frames {report['counts']['frames']}, K {report['counts']['candidates']}")

# metrics.csv holds the same document flattened into (name, value, sem) rows
for row in report_rows(report)[:3]:
    print(",".join(row))
