"""Why the sampled objective rewards honest distributions.

At gamma = 1/2 the per-example objective is the energy score, a strictly
proper scoring rule: among candidate models, the expected score is
uniquely minimized by the distribution the data actually came from. This
script makes that concrete with small discrete distributions where every
expectation is a finite sum.
"""

import numpy as np

from disconet import (
    DiscreteDistribution,
    LossSpec,
    divergence_discrete,
    energy_score_sample,
    substream,
)

spec = LossSpec()  # beta = 1, unit weights

# the "truth": four points on a square, unequal masses
support = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
p_true = np.array([0.4, 0.3, 0.2, 0.1])
truth = DiscreteDistribution(support, p_true)

# candidate models on the same support, one of them the truth itself
candidates = {
    "uniform": np.array([0.25, 0.25, 0.25, 0.25]),
    "truth": p_true,
    "mild distortion": np.array([0.5, 0.2, 0.2, 0.1]),
    "inverted": np.array([0.1, 0.2, 0.3, 0.4]),
}

# The score divergence is expected score minus the score of the truth, so
# it is zero exactly at the truth and positive everywhere else.
print("score divergence from the truth (closed form):")
for name, q in candidates.items():
    model = DiscreteDistribution(support, q)
    div = divergence_discrete(model, truth, spec)
    print(f"  {name:>16}: {div:.6f}")

# The same ordering shows up in sampled scores: draw data from the truth,
# draw K candidates from each model, average the per-example energy score.
rng = substream(0, "demo-scoring")
trials, k = 20_000, 4
cum_true = np.cumsum(p_true)
ys = support[np.searchsorted(cum_true, rng.random(trials))]
print(f"\nmean sampled energy score over {trials} draws, K={k}:")
for name, q in candidates.items():
    cum = np.cumsum(q)
    total = 0.0
    for t in range(trials):
        draws = support[np.searchsorted(cum, rng.random(k))]
        total += energy_score_sample(draws, ys[t], spec)
    print(f"  {name:>16}: {total / trials:.4f}")

print("\nthe truth wins both tables; no dishonest model can score better in expectation")
