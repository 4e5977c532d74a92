"""Weighted beta-norm losses, per-sample energy scores, and exact score
divergences on finite discrete distributions.

The loss family is Delta(y, y') = (sum_i w_i (y_i - y'_i)^2)^(beta/2) with
beta strictly inside (0, 2) and non-negative weights. For these betas the
induced energy score is a strictly proper scoring rule, and the discrete
divergence here evaluates its expectation exactly so that propriety and
estimator unbiasedness can be verified by brute force.

The loss kernel, its two sampled estimators (the data term and the pair
term), their gradients and the MEU pick live here only; the objective, the
graph op, the metrics and the toy grid fit all call them. The one pair kernel,
``_pair_shifts``, gives every distance between the candidates of one set.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, EstimatorError, ParameterError

PROB_SUM_TOL = 1e-12

# Below this squared-norm threshold the power-norm gradient is taken as
# zero: a valid subgradient at the coincident point, and a measure-zero
# event under continuous noise.
SINGULARITY_EPS = 1e-24


def _loss_weights(weights, beta, dim):
    """Validate a (weights, beta) pair and return the weight vector."""
    beta = float(beta)
    if not 0.0 < beta < 2.0:
        raise ParameterError(f"beta must lie strictly inside (0, 2), got {beta}")
    if weights is None:
        return np.ones(dim), beta
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape != (dim,):
        raise DimensionError(f"expected {dim} loss weights, got {w.shape[0]}")
    if np.any(w < 0.0):
        raise ParameterError("loss weights must be non-negative")
    if not np.any(w > 0.0):
        raise ParameterError("loss weights must not all be zero")
    return w, beta


@dataclass(frozen=True)
class LossSpec:
    """Exponent and per-coordinate weights of a beta-norm loss.

    ``weights=None`` means all ones. beta must lie strictly inside (0, 2):
    the endpoint 2 makes the induced score improper and 0 degenerates it.
    """

    beta: float = 1.0
    weights: tuple = None

    def __post_init__(self):
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        # Raises ParameterError for invalid beta or weights.
        dim = len(self.weights) if self.weights is not None else 1
        _loss_weights(self.weights, self.beta, dim)

    def weight_vector(self, dim):
        w, _ = _loss_weights(self.weights, self.beta, dim)
        return w


def sq_norm(d, w):
    """Weighted squared norm sum_i w_i d_i^2 over the trailing axis of `d`."""
    return (d * d) @ w


def axis_sq(d, w_i, out=None):
    """(d * d) * w_i: the term of one axis of a weighted squared norm, for
    the differences `d` along that axis. `out`, when given, is an array of
    d's shape that receives the term."""
    out = np.multiply(d, d, out=out)
    out *= w_i
    return out


def beta_norm(d, w, beta):
    """The loss kernel: (sum_i w_i d_i^2)^(beta/2) over the trailing axis of
    the difference array `d`, for a weight vector `w` already validated."""
    return sq_norm(d, w) ** (beta / 2.0)


def _slope(s, beta):
    """beta * s^(beta/2 - 1), which times w * d is the gradient of s^(beta/2)
    in the difference d; 0 where s < SINGULARITY_EPS."""
    with np.errstate(divide="ignore"):
        return np.where(s >= SINGULARITY_EPS, beta * s ** (beta / 2.0 - 1.0), 0.0)


def data_term(y, g, w, beta):
    """Mean over K of Delta(y, g_k): y is (..., y_dim), g is (..., K, y_dim)."""
    return beta_norm(y[..., None, :] - g, w, beta).mean(axis=-1)


def data_grad(y, g, w, beta):
    """``data_term(y, g, w, beta)`` and the gradient of its sum with
    respect to g, the same shape as g."""
    d = g - y[..., None, :]
    s = sq_norm(d, w)
    d *= w
    d *= (_slope(s, beta) / g.shape[-2])[..., None]
    return (s ** (beta / 2.0)).mean(axis=-1), d


def sorted_pairs(y_dim, beta):
    """Whether the pair term takes its sorted form: one output and beta = 1,
    where Delta(a, b) = sqrt(w) |a - b| and the pair sum is rank arithmetic
    on the sorted candidates (Gneiting & Raftery 2007, "Strictly proper
    scoring rules"; Szekely & Rizzo 2013, "Energy statistics")."""
    return y_dim == 1 and beta == 1.0


def _sorted_pair_sum(g, w):
    """sum_{a != b} sqrt(w) |g_a - g_b| / (K (K-1)) over the trailing axis
    of one output's K candidate values g, in the gap form
    2 sqrt(w) sum_j j (K - j) (g_(j+1) - g_(j)) of the sorted values:
    O(K log K), no cancellation, and exactly 0 on tied candidates."""
    k = g.shape[-1]
    gaps = np.diff(np.sort(g, axis=-1), axis=-1)
    j = np.arange(1.0, k)
    return (2.0 * np.sqrt(w)) * (gaps * (j * (k - j))).sum(axis=-1) / (k * (k - 1))


def _pair_shifts(g, w, s):
    """The pair kernel: for each shift t = 1 .. K//2, one subtraction gives
    d_a = g_a - g_b, b = a + t mod K, for the candidates g (..., K, y_dim);
    its squared norms v_a (one gemv per K-row slab) go to s[..., a, b] and
    s[..., b, a] of the C-contiguous (..., K, K) `s`, through strided views
    of the circulant diagonals of its flat (..., K*K) form; it yields (t, m,
    d, v), and d may be overwritten. At t = K/2 only the m = K/2 rows a < K/2
    are written: each unordered pair is computed once, so s is exactly
    symmetric."""
    k = g.shape[-2]
    flat = s.reshape(s.shape[:-2] + (k * k,))
    flat[..., ::k + 1] = 0.0
    ring, d = np.concatenate([g, g[..., :k // 2, :]], axis=-2), np.empty(g.shape)
    for t in range(1, k // 2 + 1):
        v = sq_norm(np.subtract(g, ring[..., t:t + k, :], out=d), w)
        m, j = k - t if 2 * t == k else k, k - t
        # s[a, a + t] and s[a + t, a] for a < j = K - t; s[a, a - j] and s[a - j, a] after
        for start, rows in ((t, v[..., :j]), (t * k, v[..., :j]), (j * k, v[..., j:m]),
                            (j, v[..., j:m])):
            flat[..., start:start + rows.shape[-1] * (k + 1):k + 1] = rows
        yield t, m, d, v


def pair_sq_norms(g, w):
    """The (..., K, K) squared norms sum_i w_i (g_a - g_b)_i^2 of candidates
    g (..., K, y_dim) from the pair kernel."""
    s = np.empty(g.shape[:-1] + g.shape[-2:-1])
    for _ in _pair_shifts(g, w, s):
        pass
    return s


def _pair_mean(loss):
    """sum_{a, b} loss_ab / (K (K-1)) over a (..., K, K) loss matrix whose
    zero diagonal is summed with the rest."""
    k = loss.shape[-1]
    return loss.sum(axis=(-2, -1)) / (k * (k - 1))


def pair_term(g, w, beta):
    """Sum over k != k' of Delta(g_k, g_k') / (K (K-1)) for g of shape
    (..., K, y_dim); needs K >= 2. When ``sorted_pairs(y_dim, beta)``
    holds the sum is rank arithmetic on sorted candidates; otherwise it is
    summed over ``pair_sq_norms``."""
    if sorted_pairs(g.shape[-1], beta):
        return _sorted_pair_sum(g[..., 0], w[0])
    return _pair_mean(pair_sq_norms(g, w) ** (beta / 2.0))


def _median_pick(g):
    """The MEU pick of one output's candidates under the L1 loss, for the
    (..., K) candidate values g: the lowest index whose value lies between
    the two middle order statistics, where sum_b |g_a - g_b| is least in
    exact arithmetic. It is the same for any g of the same order."""
    k, ordered = g.shape[-1], np.sort(g, axis=-1)
    inside = (g >= ordered[..., (k - 1) // 2, None]) & (g <= ordered[..., k // 2, None])
    return inside.argmax(axis=-1)


def pair_scores(g, w, beta):
    """``(pair, pick)`` for candidate sets g (..., K, y_dim), from one K x K
    loss matrix: ``pair_term`` (None at K = 1) and each set's MEU pick, the
    index whose summed loss to the set is least, an exact tie going to the
    lowest; where ``sorted_pairs`` holds, from one sort, and the pick follows
    the candidates' order, not the sums' roundoff (``_median_pick``)."""
    k = g.shape[-2]
    if sorted_pairs(g.shape[-1], beta):
        return _sorted_pair_sum(g[..., 0], w[0]) if k > 1 else None, _median_pick(g[..., 0])
    loss = pair_sq_norms(g, w) ** (beta / 2.0)
    return _pair_mean(loss) if k > 1 else None, loss.sum(axis=-1).argmin(axis=-1)


def pair_grad(g, w, beta):
    """``pair_term(g, w, beta)`` and the gradient of its sum with respect
    to g. The loss is symmetric, so candidate a's gradient is
    2 sum_b slope(s_ab) w (g_a - g_b) / (K (K-1)); in the sorted form,
    2 sqrt(w) (#{b: g_b < g_a - t} - #{b: g_b > g_a + t}) / (K (K-1)) with
    t = sqrt(SINGULARITY_EPS / w), the zero rule of ``_slope`` at beta = 1.
    """
    k = g.shape[-2]
    if sorted_pairs(g.shape[-1], beta):
        g1, w1 = g[..., 0], w[0]
        t = np.sqrt(SINGULARITY_EPS / w1)
        below = (g1[..., None, :] < (g1 - t)[..., :, None]).sum(axis=-1)
        above = (g1[..., None, :] > (g1 + t)[..., :, None]).sum(axis=-1)
        grad = (2.0 * np.sqrt(w1) / (k * (k - 1))) * (below - above)
        return _sorted_pair_sum(g1, w1), grad[..., None]
    s, grad = np.empty(g.shape[:-1] + (k,)), np.zeros(g.shape)
    for t, m, d, v in _pair_shifts(g, w, s):
        # slope_ab (g_a - g_b) is added to a and taken from b = a + t mod K
        c = np.multiply(d[..., :m, :], _slope(v[..., :m], beta)[..., None], out=d[..., :m, :])
        grad[..., :m, :] += c
        grad[..., t:, :] -= c[..., :k - t, :]
        grad[..., :m + t - k, :] -= c[..., k - t:, :]
    grad *= w
    return _pair_mean(s ** (beta / 2.0)), np.multiply(grad, 2.0 / (k * (k - 1)), out=grad)


def mean_sem(values):
    """Mean of `values` and its standard error, std (ddof 1) / sqrt(n); the
    error is 0 for a single value."""
    v = np.asarray(values, dtype=np.float64)
    mean = float(v.mean())
    if v.size < 2:
        return mean, 0.0
    return mean, float(v.std(ddof=1) / np.sqrt(v.size))


def delta(spec, y, y2):
    """Loss between two vectors under `spec`."""
    a = np.asarray(y, dtype=np.float64).reshape(-1)
    b = np.asarray(y2, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DimensionError(f"delta needs equal lengths, got {a.shape[0]} and {b.shape[0]}")
    return float(beta_norm(a - b, spec.weight_vector(a.shape[0]), spec.beta))


def delta_rows(spec, a, b):
    """Row-wise loss between two equal-shape matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionError(f"delta_rows needs equal-shape matrices, got {a.shape} and {b.shape}")
    return beta_norm(a - b, spec.weight_vector(a.shape[1]), spec.beta)


def pairwise_delta(spec, outputs):
    """All-pairs loss matrix between the rows of one matrix (zero diagonal)."""
    o = np.asarray(outputs, dtype=np.float64)
    if o.ndim != 2:
        raise DimensionError(f"pairwise_delta needs a matrix, got shape {o.shape}")
    return pair_sq_norms(o, spec.weight_vector(o.shape[1])) ** (spec.beta / 2.0)


def energy_score_sample(candidates, y_true, spec=LossSpec()):
    """Sampled energy score of one candidate set against one ground truth.

    Parameters
    ----------
    candidates : array-like, shape (K, y_dim)
        K >= 2 sampled outputs for a single input.
    y_true : array-like, shape (y_dim,)
        Observed output.
    spec : LossSpec
        Loss used for both the data term and the diversity term.

    Returns
    -------
    float
        ``mean_k Delta(y, g_k) - sum_{k != k'} Delta(g_k, g_k') / (2 K (K-1))``.
        Lower is better; the second term rewards candidate diversity.
    """
    outs = np.asarray(candidates, dtype=np.float64)
    if outs.ndim != 2:
        raise DimensionError(f"candidates must be a (K, y_dim) matrix, got shape {outs.shape}")
    if outs.shape[0] < 2:
        raise EstimatorError("energy score needs at least two candidates")
    y = np.asarray(y_true, dtype=np.float64).reshape(-1)
    if y.shape[0] != outs.shape[1]:
        raise DimensionError(f"y_true length {y.shape[0]} vs candidate dim {outs.shape[1]}")
    w = spec.weight_vector(y.shape[0])
    return float(data_term(y, outs, w, spec.beta)) - 0.5 * float(pair_term(outs, w, spec.beta))


class DiscreteDistribution:
    """Finite distribution over distinct support vectors.

    Used as an exact oracle: expectations under it are finite double sums,
    so scoring-rule identities can be checked without sampling error.
    """

    def __init__(self, support, probabilities):
        support = np.array(support, dtype=np.float64)
        if support.ndim == 1:
            support = support.reshape(-1, 1)
        if support.ndim != 2 or support.shape[0] == 0:
            raise ContractError(f"support must be a non-empty (M, d) array, got {support.shape}")
        probs = np.array(probabilities, dtype=np.float64).reshape(-1)
        if probs.shape[0] != support.shape[0]:
            raise ContractError(
                f"{support.shape[0]} support points but {probs.shape[0]} probabilities"
            )
        if np.any(probs < 0.0):
            raise ContractError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ContractError(f"probabilities sum to {probs.sum()!r}, not 1")
        seen = {tuple(row) for row in support}
        if len(seen) != support.shape[0]:
            raise ContractError("support points must be distinct")
        support.setflags(write=False)
        probs.setflags(write=False)
        self.support = support
        self.probabilities = probs

    @property
    def dim(self):
        return self.support.shape[1]

    def __len__(self):
        return self.support.shape[0]


def div_exact(a, b, spec=LossSpec()):
    """Exact expected loss E Delta(A, B) between two finite distributions."""
    if a.dim != b.dim:
        raise DimensionError(f"distribution dims differ: {a.dim} vs {b.dim}")
    d = a.support[:, None, :] - b.support[None, :, :]
    vals = beta_norm(d, spec.weight_vector(a.dim), spec.beta)
    return float(a.probabilities @ vals @ b.probabilities)


def divergence_discrete(q, p, spec=LossSpec()):
    """Exact score divergence of a model Q from a target P.

    Computed as ``DIV(P,Q) - DIV(Q,Q)/2 - DIV(P,P)/2`` with every term an
    exact double sum. Non-negative up to roundoff, and zero exactly when
    the distributions coincide (strict propriety for beta in (0, 2)).
    """
    return (
        div_exact(p, q, spec)
        - 0.5 * div_exact(q, q, spec)
        - 0.5 * div_exact(p, p, spec)
    )
