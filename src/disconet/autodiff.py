"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The graph is the independent reference for the training gradient, which
``objective.objective_terms`` computes by hand. It holds only what a
noise-conditioned dense generator and its sampled training objective need:
values of rank two or less and a small fixed set of primitive operations.
Its loss op takes the loss, and the singularity rule of its slope, from
``scoring``. Graphs are append-only, so the node list is already a
topological order and the backward pass is a single reverse sweep.
Identical graph construction yields bitwise-identical values and gradients.
"""

import numpy as np

from .errors import ContractError, DimensionError, NumericError, ParameterError
from .scoring import SINGULARITY_EPS, _loss_weights, beta_norm, sq_norm


class Tensor:
    """Immutable dense array of 64-bit reals, rank <= 2.

    Construction validates finiteness, so a NaN or overflow surfaces at
    the operation that produced it rather than somewhere downstream.
    """

    __slots__ = ("array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim > 2:
            raise DimensionError(f"rank-{arr.ndim} tensors unsupported (shape {arr.shape})")
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite tensor entries")
        arr.setflags(write=False)
        self.array = arr

    @property
    def shape(self):
        return self.array.shape

    @property
    def size(self):
        return self.array.size

    def item(self):
        return self.array.item()

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class _Node:
    __slots__ = ("op", "inputs", "value", "ctx")

    def __init__(self, op, inputs, value, ctx=None):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.ctx = ctx


class Graph:
    """Append-only computation graph over Tensors.

    Node ids are indices into the node list; every operation's inputs
    refer to strictly earlier nodes and node values never change after
    creation. backward() recomputes gradients from scratch on every call,
    so repeated calls from the same root agree bitwise.
    """

    def __init__(self):
        self._nodes = []
        self.gradients = None

    def __len__(self):
        return len(self._nodes)

    def value(self, node):
        return self._nodes[node].value

    def grad(self, node):
        if self.gradients is None:
            raise ContractError("backward() has not run on this graph")
        return self.gradients[node]

    def _append(self, op, inputs, value, ctx=None):
        for i in inputs:
            if not 0 <= i < len(self._nodes):
                raise ContractError(f"input node {i} is not in the graph")
        self._nodes.append(_Node(op, inputs, Tensor(value), ctx))
        return len(self._nodes) - 1

    # -- leaves ---------------------------------------------------------

    def constant(self, values):
        """Insert a leaf node holding the given values."""
        return self._append("const", (), np.asarray(values, dtype=np.float64))

    # -- primitive operations -------------------------------------------

    def matmul(self, a, b):
        av, bv = self.value(a).array, self.value(b).array
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise DimensionError(f"matmul needs [m,k] x [k,n], got {av.shape} x {bv.shape}")
        return self._append("matmul", (a, b), av @ bv)

    def add(self, a, b):
        """Elementwise sum; a [1,m] operand broadcasts over [n,m] rows."""
        av, bv = self.value(a).array, self.value(b).array
        ok = av.shape == bv.shape or (
            av.ndim == 2
            and bv.ndim == 2
            and av.shape[1] == bv.shape[1]
            and (av.shape[0] == 1 or bv.shape[0] == 1)
        )
        if not ok:
            raise DimensionError(f"add shapes {av.shape} and {bv.shape} do not conform")
        return self._append("add", (a, b), av + bv)

    def relu(self, a):
        """max(x, 0); the derivative at exactly zero is taken as zero."""
        return self._append("relu", (a,), np.maximum(self.value(a).array, 0.0))

    def concat(self, a, b, axis=0):
        av, bv = self.value(a).array, self.value(b).array
        if av.ndim == 0 or av.ndim != bv.ndim:
            raise DimensionError(f"concat needs equal ranks >= 1, got {av.shape} and {bv.shape}")
        if not 0 <= axis < av.ndim:
            raise DimensionError(f"axis {axis} invalid for rank {av.ndim}")
        for d in range(av.ndim):
            if d != axis and av.shape[d] != bv.shape[d]:
                raise DimensionError(f"concat shapes {av.shape} and {bv.shape} differ off-axis")
        value = np.concatenate([av, bv], axis=axis)
        return self._append("concat", (a, b), value, ctx=(axis, av.shape[axis]))

    def reduce_sum(self, a):
        """Sum of all entries; result is a scalar node."""
        return self._append("reduce_sum", (a,), np.asarray(self.value(a).array.sum()))

    def scale(self, a, c):
        c = float(c)
        if not np.isfinite(c):
            raise ParameterError("scale factor must be finite")
        return self._append("scale", (a,), self.value(a).array * c, ctx=c)

    def reshape(self, a, shape):
        shape = tuple(int(s) for s in shape)
        av = self.value(a).array
        if len(shape) > 2 or int(np.prod(shape, dtype=np.int64)) != av.size:
            raise DimensionError(f"cannot reshape {av.shape} to {shape}")
        return self._append("reshape", (a,), av.reshape(shape))

    def gather_rows(self, a, indices):
        """Select matrix rows by index; rows may repeat."""
        av = self.value(a).array
        if av.ndim != 2:
            raise DimensionError(f"gather_rows needs a matrix, got shape {av.shape}")
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
            raise ContractError("row index out of range")
        return self._append("gather_rows", (a,), av[idx], ctx=idx.copy())

    def weighted_pow_norm(self, a, b, weights=None, beta=1.0):
        """Scalar (sum_i w_i (a_i - b_i)^2)^(beta/2) between two vectors."""
        return self._pow_norm("weighted_pow_norm", 1, a, b, weights, beta)

    def row_pow_norms(self, a, b, weights=None, beta=1.0):
        """Row-wise weighted_pow_norm between two equal-shape matrices."""
        return self._pow_norm("row_pow_norms", 2, a, b, weights, beta)

    def _pow_norm(self, name, ndim, a, b, weights, beta):
        """One op for both entry points: the norm over the trailing axis."""
        av, bv = self.value(a).array, self.value(b).array
        if av.ndim != ndim or av.shape != bv.shape:
            raise DimensionError(
                f"{name} needs equal-shape rank-{ndim} operands, got {av.shape} and {bv.shape}"
            )
        w, beta = _loss_weights(weights, beta, av.shape[-1])
        return self._append("pow_norm", (a, b), beta_norm(av - bv, w, beta), ctx=(w, beta))

    # -- reverse sweep ---------------------------------------------------

    def backward(self, root):
        """Gradients of the scalar at `root` with respect to every node.

        Returns the per-node gradient table (also kept on `gradients`).
        Nodes the root does not depend on get zero gradients of their own
        shape. Each call recomputes from scratch.
        """
        if not 0 <= root < len(self._nodes):
            raise ContractError(f"node {root} is not in the graph")
        if self.value(root).shape != ():
            raise ContractError(f"backward root must be scalar, got shape {self.value(root).shape}")
        grads = [np.zeros(n.value.shape) for n in self._nodes]
        grads[root] = np.ones(())
        for i in range(root, -1, -1):
            node = self._nodes[i]
            g = grads[i]
            if node.op in ("const",):
                continue
            if node.op == "matmul":
                a, b = node.inputs
                av, bv = self._nodes[a].value.array, self._nodes[b].value.array
                grads[a] = grads[a] + g @ bv.T
                grads[b] = grads[b] + av.T @ g
            elif node.op == "add":
                a, b = node.inputs
                grads[a] = grads[a] + _unbroadcast(g, grads[a].shape)
                grads[b] = grads[b] + _unbroadcast(g, grads[b].shape)
            elif node.op == "relu":
                (a,) = node.inputs
                grads[a] = grads[a] + g * (self._nodes[a].value.array > 0.0)
            elif node.op == "concat":
                a, b = node.inputs
                axis, asize = node.ctx
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(0, asize)
                grads[a] = grads[a] + g[tuple(sl)]
                sl[axis] = slice(asize, None)
                grads[b] = grads[b] + g[tuple(sl)]
            elif node.op == "reduce_sum":
                (a,) = node.inputs
                grads[a] = grads[a] + g
            elif node.op == "scale":
                (a,) = node.inputs
                grads[a] = grads[a] + node.ctx * g
            elif node.op == "reshape":
                (a,) = node.inputs
                grads[a] = grads[a] + g.reshape(grads[a].shape)
            elif node.op == "gather_rows":
                (a,) = node.inputs
                acc = np.zeros_like(grads[a])
                np.add.at(acc, node.ctx, g)
                grads[a] = grads[a] + acc
            elif node.op == "pow_norm":
                a, b = node.inputs
                w, beta = node.ctx
                av, bv = self._nodes[a].value.array, self._nodes[b].value.array
                s = np.asarray(sq_norm(av - bv, w))
                coeff = np.zeros_like(s)
                live = s >= SINGULARITY_EPS
                coeff[live] = g[live] * beta * s[live] ** (beta / 2.0 - 1.0)
                gb = coeff[..., None] * (w * (bv - av))
                grads[b] = grads[b] + gb
                grads[a] = grads[a] - gb
            else:  # pragma: no cover - every op above registers its rule
                raise ContractError(f"no backward rule for op {node.op!r}")
        table = [Tensor(ga) for ga in grads]
        self.gradients = table
        return table


def _unbroadcast(g, target_shape):
    if g.shape == target_shape:
        return g
    return g.sum(axis=0, keepdims=True)
