"""Checking analytic gradients against finite differences.

Training takes the gradient of the sampled objective from
disconet.objective_terms: one forward pass, the loss gradient in closed
form, and a hand-written backward pass through the layers. This script
builds a small noise-fed generator, picks a grid of diversity weights and
loss exponents, and compares that gradient with central finite
differences.
"""

import numpy as np

from disconet import (
    LossSpec,
    NetConfig,
    NetworkParams,
    ObjectiveConfig,
    grad_check,
    init_params,
    objective_terms,
    substream,
)

# a small generator: 2-D input, 4-D noise, one hidden layer, 2-D output
net = NetConfig(x_dim=2, y_dim=2, z_dim=4, encoder_widths=(), decoder_widths=(6,))
params = init_params(net, seed=0)
print(f"net layers {net.layer_dims()}, {net.param_count()} parameters")

# a fixed tiny batch with pre-drawn noise (the draws stay frozen while we
# wiggle the parameters, so the objective is a deterministic function)
rng = substream(0, "demo-gradcheck")
n, k = 4, 3
x = rng.uniform(-1.0, 1.0, size=(n, 2))
y = rng.uniform(-1.0, 1.0, size=(n, 2))
z = rng.uniform(-1.0, 1.0, size=(n, k, 4))

print(f"{'gamma':>6} {'beta':>5} {'max rel err':>12}")
worst = 0.0
for gamma in (0.0, 0.25, 0.5):
    for beta in (0.5, 1.0, 1.5):
        cfg = ObjectiveConfig(gamma=gamma, num_candidates=k, loss=LossSpec(beta=beta))

        def objective_and_grad(flat):
            _, _, value, grad = objective_terms(NetworkParams.from_flat(net, flat), x, y, z, cfg)
            return value, grad

        err = grad_check(objective_and_grad, params.to_flat())
        worst = max(worst, err)
        print(f"{gamma:>6} {beta:>5} {err:>12.3e}")

print(f"\nworst disagreement {worst:.3e} (tolerance for trust: 1e-4)")
