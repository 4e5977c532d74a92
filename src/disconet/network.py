"""Noise-conditioned dense generator and candidate sampling.

The generator maps an input x and a noise draw z to an output y: dense
encoder layers over x (ReLU), concatenation of the encoder output with z,
dense decoder layers (ReLU), and a final linear layer. Sampling the noise
K times for the same x yields K candidate outputs, i.e. samples from the
model's conditional distribution. The K candidates of an input share the
encoder, so the encoder runs once per input, and the first layer after the
concatenation takes the encoder's part of its matmul once per input and
only the noise's part once per candidate. A net with noise disabled takes
the same pass with noise of width zero: its K candidates coincide and it is
an ordinary deterministic regressor.

``layer_walk`` is the one forward pass: training, prediction and every
sampler run through it, eval's blocks of frames (``cli.cmd_eval``) too.
"""

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError, ParseError
from .strictjson import TYPES, dataclass_keys, json_value, read_file, read_json, read_rows

PARAMS_FORMAT = "disconet-params"
PARAMS_VERSION = 1


@dataclass(frozen=True)
class NetConfig:
    """Generator architecture: layer widths and the noise channel.

    Noise coordinates are drawn i.i.d. uniform on [-1, 1] (``draw_noise``)
    and concatenated after the encoder stack. With ``noise_enabled`` False
    the noise has width ``noise_dim`` = 0, whatever ``z_dim`` says. All
    hidden layers use ReLU; the output layer is linear. The defaults are
    desk-scale; the full-scale hand-pose setup uses z_dim=200 with wider
    layers.
    """

    x_dim: int
    y_dim: int
    z_dim: int = 8
    encoder_widths: tuple = (64,)
    decoder_widths: tuple = (64, 64)
    noise_enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "encoder_widths", tuple(int(w) for w in self.encoder_widths))
        object.__setattr__(self, "decoder_widths", tuple(int(w) for w in self.decoder_widths))
        dims = (self.x_dim, self.y_dim) + self.encoder_widths + self.decoder_widths
        if any(int(d) < 1 for d in dims):
            raise ContractError(f"all dimensions must be positive, got {dims}")
        if self.z_dim < 0:
            raise ContractError(f"z_dim must be >= 0, got {self.z_dim}")
        if self.noise_enabled and self.z_dim < 1:
            raise ContractError("z_dim must be >= 1 when noise is enabled")

    @property
    def noise_dim(self):
        return self.z_dim if self.noise_enabled else 0

    def layer_dims(self):
        """(fan_in, fan_out) for every dense layer, in forward order: the
        encoder chain from x, then the chain from the join (the encoder's
        output and the noise) through the decoder to y."""
        enc = (self.x_dim,) + self.encoder_widths
        dec = (enc[-1] + self.noise_dim,) + self.decoder_widths + (self.y_dim,)
        return list(zip(enc[:-1], enc[1:])) + list(zip(dec[:-1], dec[1:]))

    def param_count(self):
        return sum((fi + 1) * fo for fi, fo in self.layer_dims())

    def to_dict(self):
        return {f.name: json_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc):
        """The config of a ``to_dict`` document: exactly its six fields, each
        of its JSON type (``strictjson.dataclass_keys``: the widths are lists
        of ints, and a bool is no int), with no coercion; TypeError names the
        first field that breaks this."""
        spec = dataclass_keys(cls)
        if not isinstance(doc, dict) or doc.keys() != spec.keys():
            raise TypeError(f"the fields must be exactly {sorted(spec)}")
        for key, (check, _, _) in spec.items():
            if not check(doc[key]):
                raise TypeError(f"{key} has the wrong type: {doc[key]!r}")
        return cls(**doc)


def layer_views(config, flat):
    """Every dense layer's ``(W, b)`` as views into the vector `flat`, in
    forward order. This is the one statement of the flat layout: per layer,
    the row-major (fan_in, fan_out) weight matrix, then the bias."""
    views, pos = [], 0
    for fi, fo in config.layer_dims():
        end = pos + fi * fo
        views.append((flat[pos:end].reshape(fi, fo), flat[end : end + fo]))
        pos = end + fo
    return tuple(views)


class NetworkParams:
    """All layer weights and biases as one read-only float64 vector, ``flat``.

    ``layers`` holds each dense layer's ``(W, b)`` as read-only views into
    ``flat`` (``layer_views``); optimizers work on the vector itself. With
    `copy` False, ``flat`` views the caller's vector, which training updates.
    """

    def __init__(self, config, flat, copy=True):
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
        flat = flat.copy() if copy else flat.view()
        if flat.size != config.param_count():
            raise DimensionError(f"expected {config.param_count()} values, got {flat.size}")
        flat.setflags(write=False)
        self.config = config
        self.flat = flat
        self.layers = layer_views(config, flat)

    @property
    def size(self):
        return self.flat.size

    def to_flat(self):
        """A writable copy of ``flat``."""
        return self.flat.copy()

    @classmethod
    def from_flat(cls, config, flat):
        return cls(config, flat)

    def weight_mask(self):
        """Boolean mask over ``flat``: True at weight entries, False at biases."""
        mask = np.zeros(self.size, dtype=bool)
        for w, _ in layer_views(self.config, mask):
            w[...] = True
        return mask

    def save(self, path):
        """Write the versioned textual checkpoint format.

        Line 1 is a JSON header carrying the format name, version, and the
        architecture; every following line is one flat-view value printed
        with 17 significant digits (``%.17g``), which round-trip every
        float64 exactly. The file's directory is made if it is missing.
        """
        header = {
            "format": PARAMS_FORMAT,
            "version": PARAMS_VERSION,
            "net": self.config.to_dict(),
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            # in blocks: a full-scale checkpoint's lines are some 20 MB of Python
            # objects; one format call per block keeps the per-value work in C
            for i in range(0, self.size, 8192):
                block = self.flat[i : i + 8192].tolist()
                fh.write(("%.17g\n" * len(block)) % tuple(block))

    @classmethod
    def load(cls, path):
        first, end, text = read_file(path).partition("\n")
        if not (first or end):
            raise ParseError(f"{path}: empty checkpoint file")
        try:
            header = read_json(first)
        except ValueError as exc:
            raise ParseError(f"{path}: line 1: bad header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != PARAMS_FORMAT:
            raise ParseError(f"{path}: line 1: not a {PARAMS_FORMAT} header")
        if not TYPES["int"](header.get("version")) or header["version"] != PARAMS_VERSION:
            raise ParseError(f"{path}: line 1: unsupported version {header.get('version')!r}")
        try:
            config = NetConfig.from_dict(header.get("net"))
        except (TypeError, ContractError) as exc:
            raise ParseError(f"{path}: line 1: bad architecture header: {exc}") from exc
        values = read_rows(path, text, 1, first=2)
        if values.size != config.param_count():
            raise ParseError(f"{path}: expected {config.param_count()} values, found {values.size}")
        return cls(config, values, copy=False)


def init_params(config, seed):
    """Deterministic init: weights uniform on [-a, a] with
    a = sqrt(6 / (fan_in + fan_out)), biases zero."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    flat = np.zeros(config.param_count())
    for w, _ in layer_views(config, flat):
        a = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-a, a, size=w.shape)
    return NetworkParams(config, flat)


@dataclass
class BoundParams:
    """Network parameters inserted into a graph as constant nodes."""

    config: NetConfig
    nodes: tuple


def bind_params(g, params):
    """Insert every weight and bias into `g`; biases become [1, fan_out] rows."""
    nodes = tuple((g.constant(w), g.constant(b.reshape(1, -1))) for w, b in params.layers)
    return BoundParams(params.config, nodes)


def grad_flat(g, bound):
    """Collect parameter gradients after backward(), in ``flat`` order."""
    grad = np.empty(bound.config.param_count())
    for (wid, bid), (gw, gb) in zip(bound.nodes, layer_views(bound.config, grad)):
        gw[...] = g.grad(wid).array
        gb[...] = g.grad(bid).array.ravel()
    return grad


def forward_rows(g, params, x, z=None):
    """Batched generator pass inside a graph; rows are independent samples.

    `params` is a NetworkParams or an existing BoundParams; `x` and `z`
    are node ids or arrays of shape (R, x_dim) and (R, z_dim). When noise
    is disabled any `z` argument is ignored and the output depends on x
    alone. Returns the node id of the (R, y_dim) output.
    """
    bound = bind_params(g, params) if isinstance(params, NetworkParams) else params
    cfg = bound.config
    xid = x if isinstance(x, (int, np.integer)) else g.constant(np.asarray(x, dtype=np.float64))
    xv = g.value(xid).array
    if xv.ndim != 2 or xv.shape[1] != cfg.x_dim:
        raise DimensionError(f"x must be (rows, {cfg.x_dim}), got {xv.shape}")
    h = xid
    n_enc = len(cfg.encoder_widths)
    for li in range(n_enc):
        wid, bid = bound.nodes[li]
        h = g.relu(g.add(g.matmul(h, wid), bid))
    if cfg.noise_enabled:
        if z is None:
            raise ContractError("noise-enabled network needs z")
        zid = z if isinstance(z, (int, np.integer)) else g.constant(np.asarray(z, dtype=np.float64))
        zv = g.value(zid).array
        if zv.shape != (xv.shape[0], cfg.z_dim):
            raise DimensionError(f"z must be ({xv.shape[0]}, {cfg.z_dim}), got {zv.shape}")
        h = g.concat(h, zid, axis=1)
    for li in range(n_enc, n_enc + len(cfg.decoder_widths)):
        wid, bid = bound.nodes[li]
        h = g.relu(g.add(g.matmul(h, wid), bid))
    wid, bid = bound.nodes[-1]
    return g.add(g.matmul(h, wid), bid)


def draw_noise(config, n, k, rng, work=None):
    """The (n, K, noise_dim) noise for K candidates of each of n inputs:
    i.i.d. uniform on [-1, 1] in row order, bitwise ``rng.uniform(-1, 1)``, in
    an array kept in `work` as in ``layer_walk`` until the next draw of its
    shape. A noise-free net's draw is empty, kept nowhere, and draws nothing."""
    z = rng.random(out=_held(work if config.noise_enabled else None, (n, k, "noise"),
                             (n, k, config.noise_dim), float))
    return np.subtract(np.multiply(z, 2.0, out=z), 1.0, out=z)  # -1 + 2 u, as uniform computes it


def _held(work, key, shape, dtype):
    """``work[key]``, an empty array of `shape` and `dtype` made on first use,
    or a fresh one when `work`, a caller's dict of arrays kept across walks, is None."""
    if work is None:
        return np.empty(shape, dtype)
    if key not in work:
        work[key] = np.empty(shape, dtype)
    return work[key]


def layer_walk(params, x, z=None, k=1, work=None):
    """The generator pass for K candidates of each of n inputs, yielding
    each dense layer's (input, pre-activation) in forward order.

    `x` is (n, x_dim) and `z` the (n, K, z_dim) noise. A net with noise
    disabled ignores `z` and walks with noise of width zero. The layers
    before the noise join run on the n input rows; the join layer splits its
    weight matrix where its input's noise columns begin, so its
    pre-activation ``[h, z] @ W + b`` is ``h @ W[:h_w] + b``, once per input,
    plus ``z @ W[h_w:]``, once per candidate (all zeros at width zero), and
    its input is the pair ``(h, z)``: h with n rows, z with n K rows. Every
    later layer runs on the n K rows, example-major, and its input is the
    ReLU of the previous pre-activation, taken in place: a yielded
    pre-activation holds until the walk goes on. The last pre-activation is
    the (n K, y_dim) output. Training keeps every input for ``walk_back``,
    which overwrites them with deltas: a caller that keeps them copies them.

    Each layer writes into an array of its own, and the join's per-input
    part into one more, made as the layer runs or kept by batch shape (n, K)
    in `work`: a walk over a shape seen before allocates none.
    """
    cfg = params.config
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != cfg.x_dim:
        raise DimensionError(f"x must be (rows, {cfg.x_dim}), got {h.shape}")
    n = h.shape[0]
    if not cfg.noise_enabled:
        z = np.empty((n, k, 0))
    elif z is None:
        raise ContractError("noise-enabled network needs z")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (n, k, cfg.noise_dim):
        raise DimensionError(f"z must be ({n}, {k}, {cfg.noise_dim}), got {z.shape}")
    z = z.reshape(n * k, cfg.noise_dim)
    join = len(cfg.encoder_widths)
    pre = None
    for li, (w, b) in enumerate(params.layers):
        if pre is not None:
            h = np.maximum(pre, 0.0, out=pre)
        pre = _held(work, (n, k, li), (n if li < join else n * k, w.shape[1]), float)
        if li == join:
            h_w = h.shape[1]
            part = _held(work, (n, k, "part"), (n, w.shape[1]), float)
            np.add(np.matmul(h, w[:h_w], out=part), b, out=part)
            candidates = np.matmul(z, w[h_w:], out=pre).reshape(n, k, -1)
            candidates += part[:, None, :]
            yield (h, z), pre
        else:
            np.matmul(h, w, out=pre)
            pre += b
            yield h, pre


def walk_back(params, inputs, delta, work=None):
    """The gradient of sum(delta * output) as one vector in
    ``NetworkParams.flat`` order, for the layer inputs one ``layer_walk``
    yielded and a `delta` shaped like its output. ReLU has derivative 0 at
    0, and its input is positive exactly where its output is. At the join
    layer the gradient is summed over each input's K candidates, so the
    layers before it run on n rows. Each layer's delta is written over that
    layer's input, dead once its weight gradient and ReLU mask are taken, so
    afterwards the inputs hold deltas (x and the join's noise excepted). The
    gradient, that sum and one ReLU mask per input shape are arrays of
    their own, kept in `work` as in ``layer_walk``."""
    join = len(params.config.encoder_widths)
    n = inputs[join][0].shape[0]
    k = delta.shape[0] // n
    grad = _held(work, (n, k, "grad"), params.size, float)
    for li, (gw, gb) in reversed(tuple(enumerate(layer_views(params.config, grad)))):
        h, w = inputs[li], params.layers[li][0]
        np.sum(delta, axis=0, out=gb)
        if li == join:
            # h is shared by an input's K candidates, z is drawn per candidate
            h, zj = h
            h_w = h.shape[1]
            ds = _held(work, (n, k, "sum"), (n, delta.shape[1]), float)
            np.sum(delta.reshape(n, -1, delta.shape[1]), axis=1, out=ds)
            np.matmul(h.T, ds, out=gw[:h_w])
            np.matmul(zj.T, delta, out=gw[h_w:])
            delta, w = ds, w[:h_w]
        else:
            np.matmul(h.T, delta, out=gw)
        if li > 0:  # h is dead once gw and its ReLU mask are taken: the delta goes over it
            mask = np.greater(h, 0.0, out=_held(work, (n, k, "mask", h.shape), h.shape, bool))
            delta = np.multiply(np.matmul(delta, w.T, out=h), mask, out=h)
    return grad


def _walk_output(params, walk):
    """The last pre-activation of a ``layer_walk``; every earlier pair is
    dropped at once, so without `work` two layers' arrays are held at a time."""
    for _ in params.layers[1:]:
        next(walk)
    return next(walk)[1]


def predict_rows(params, x, z=None):
    """Plain-array forward pass over (R, x_dim) inputs and (R, z_dim)
    noise: ``layer_walk`` with one candidate per row. `z` is ignored when
    noise is disabled."""
    if z is not None:
        z = np.expand_dims(np.asarray(z, dtype=np.float64), 1)
    return _walk_output(params, layer_walk(params, x, z))


def sample_outputs(params, x, num_candidates, rng, work=None):
    """K sampled outputs for every row of `x`, as an (N, K, y_dim) array.

    The noise is one ``draw_noise`` from `rng`, the same stream values that
    N one-row draws in row order would take; one ``layer_walk`` then runs
    the encoder once per row and the layers after the noise join over all
    N * K rows, into the arrays of `work` when given, so that the outputs
    hold until its next walk over their shape. A noise-free net draws
    nothing and samples one candidate per row, repeated K times: a K-row
    pass could round identical rows apart.
    """
    if num_candidates < 1:
        raise ContractError("num_candidates must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    n, k = x.shape[0], num_candidates
    if k > 1 and not params.config.noise_enabled:
        return np.repeat(sample_outputs(params, x, 1, rng, work), k, axis=1)
    z = draw_noise(params.config, n, k, rng, work)
    walk = layer_walk(params, x, z, k, work)
    return _walk_output(params, walk).reshape(n, k, params.config.y_dim)


def sample_candidates(params, x, num_candidates, rng):
    """The (K, y_dim) candidates for one input `x`: ``sample_outputs`` on a
    single row."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return sample_outputs(params, x, num_candidates, rng)[0]


def candidate_array(outs):
    """Candidates as the (N, K, y_dim) float64 array ``sample_outputs``
    returns, with N and K at least 1; ContractError for any other shape."""
    outs = np.asarray(outs, dtype=np.float64)
    if outs.ndim != 3 or outs.shape[0] < 1 or outs.shape[1] < 1:
        raise ContractError(f"candidates must be a non-empty (N, K, y_dim) array, got {outs.shape}")
    return outs
