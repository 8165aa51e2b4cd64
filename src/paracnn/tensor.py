"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Every quantity in the generator, the critic and the losses is a ``Tensor``
holding float64 data, so finite-difference gradient checks are
meaningful. Each operation records a backward closure; ``Tensor.backward``
walks the tape in reverse topological order, accumulates gradients into
every ``requires_grad`` ancestor and frees each interior node behind it, so
only leaves keep ``.grad`` and a spent graph cannot be walked again.

Broadcasting is restricted to numpy's trailing-dimension alignment; anything
else fails with a ``ShapeError``. The operands of ``+``, ``-`` and ``@`` are
Tensors; ``*`` also takes a number. Inside a ``no_grad()`` block nothing is
recorded, so inference keeps no tape alive.
"""

from __future__ import annotations

import contextlib

import numpy as np

# False inside no_grad(): operations then record no parents and no closures
_taping = True


@contextlib.contextmanager
def no_grad():
    """Run the block without a tape: op outputs have no parents and need no grad.

    Usable as ``with no_grad():`` or as a decorator; the previous state comes
    back on exit, also when the block raises.
    """
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class EmptyLossError(ValueError):
    """A masked reduction was requested with zero unmasked positions."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot reduce gradient of shape {grad.shape} to {shape}")
    return grad


def _check_broadcast(sa: tuple, sb: tuple):
    """Accept only trailing-dimension alignment; reject anything fancier."""
    for a, b in zip(reversed(sa), reversed(sb)):
        if a != b and a != 1 and b != 1:
            raise ShapeError(f"shapes {sa} and {sb} do not broadcast on trailing dimensions")


def _spent(g):
    """Backward rule of an interior node whose graph ``backward`` has already walked."""
    raise RuntimeError("backward through a graph that an earlier backward() has freed")


class Tensor:
    """Node in a dynamic computation graph: values plus accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)  # a float64 array is not copied
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _taping and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """Add ``g`` into ``self.grad``.

        A first gradient is copied, since a backward rule may hand one array to
        two parents (``__add__``) or pass on a view of an array another node
        holds (``reshape``, ``concat``). A rule that has just built ``g`` and
        gives it to this node alone says ``owned=True``, and a first ``g`` of
        the data's dtype is then kept as it is: later gradients add into it.
        """
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.empty_like(self.data)
                self.grad[...] = g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    # -- autodiff --------------------------------------------------------------

    def backward(self):
        """Backpropagate d(self)/d(self) = 1 from this scalar node.

        The graph is spent afterwards: a second ``backward()`` on it, or on a new
        graph built on one of its interior nodes, raises ``RuntimeError``.
        """
        if self.data.size != 1:
            raise ShapeError("backward() needs a scalar output")

        # Iterative topological sort; graph depth can exceed the recursion limit.
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        # Each node is popped and, once its rule has run, an interior node lets go
        # of its gradient, its closure and its parents, so an intermediate is
        # freed as soon as no later rule needs it. Leaves keep their gradient.
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None
                node._parents = ()
                node._backward = _spent

    # -- elementwise arithmetic -------------------------------------------------

    def __add__(self, other):
        _check_broadcast(self.shape, other.shape)
        data = self.data + other.data
        a, b = self, other

        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._from_op(data, (a, b), bw)

    def __neg__(self):
        a = self
        return Tensor._from_op(-self.data, (a,), lambda g: a._accumulate(-g))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _check_broadcast(self.shape, other.shape)
            data = self.data * other.data
            a, b = self, other

            def bw(g):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g * b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g * a.data, b.shape))

            return Tensor._from_op(data, (a, b), bw)
        scale = float(other)
        a = self
        return Tensor._from_op(self.data * scale, (a,), lambda g: a._accumulate(g * scale))

    __rmul__ = __mul__

    # -- structural ops ----------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError("matmul requires operands with ndim >= 2")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
        if b.ndim == 2:
            # a 2-D right operand is one GEMM over every leading row, forward and backward
            a2 = a.data.reshape(-1, a.shape[-1])
            data = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[1],))

            def bw2(g):
                g2 = g.reshape(-1, b.shape[1])
                if a.requires_grad:
                    a._accumulate((g2 @ b.data.T).reshape(a.shape), owned=True)
                if b.requires_grad:
                    b._accumulate(a2.T @ g2, owned=True)

            return Tensor._from_op(data, (a, b), bw2)
        _check_broadcast(a.shape[:-2], b.shape[:-2])
        data = a.data @ b.data

        def bw(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

        return Tensor._from_op(data, (a, b), bw)

    __matmul__ = matmul

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        data = self.data.reshape(shape)
        return Tensor._from_op(data, (a,), lambda g: a._accumulate(g.reshape(a.shape)))

    def transpose(self, axes) -> "Tensor":
        a = self
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))
        data = self.data.transpose(axes)
        return Tensor._from_op(data, (a,), lambda g: a._accumulate(g.transpose(inv)))

    def __getitem__(self, key) -> "Tensor":
        a = self
        data = self.data[key]

        def bw(g):
            full = np.zeros_like(a.data)
            full[key] = g
            a._accumulate(full)

        return Tensor._from_op(data, (a,), bw)

    def broadcast_to(self, shape) -> "Tensor":
        shape = tuple(shape)
        _check_broadcast(self.shape, shape)
        a = self
        data = np.broadcast_to(self.data, shape).copy()
        return Tensor._from_op(data, (a,), lambda g: a._accumulate(_unbroadcast(g, a.shape)))

    # -- reductions ---------------------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        a = self
        data = self.data.sum(axis=axis)

        def bw(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        return Tensor._from_op(data, (a,), bw)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    def max(self, axis: int) -> "Tensor":
        """Maximum along one axis; gradient routes to the first argmax on ties."""
        a = self
        data = self.data.max(axis=axis)
        amax = self.data.argmax(axis=axis)

        def bw(g):
            g = np.expand_dims(g, axis)
            full = np.zeros_like(a.data)
            np.put_along_axis(full, np.expand_dims(amax, axis), g, axis=axis)
            a._accumulate(full)

        return Tensor._from_op(data, (a,), bw)

    # -- nonlinearities ------------------------------------------------------------

    def tanh(self) -> "Tensor":
        a = self
        y = np.tanh(self.data)
        return Tensor._from_op(y, (a,), lambda g: a._accumulate(g * (1.0 - y * y)))

    def relu(self) -> "Tensor":
        a = self
        y = np.maximum(self.data, 0.0)
        return Tensor._from_op(y, (a,), lambda g: a._accumulate(g * (a.data > 0.0)))

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stabilized softmax; output sums to 1 along ``axis``."""
        a = self
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def bw(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - dot))

        return Tensor._from_op(y, (a,), bw)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# -- free functions ---------------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref):
            raise ShapeError(f"concat rank mismatch: {ref} vs {t.shape}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._from_op(data, tuple(tensors), bw)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup ``table[indices]`` for a 2-D table; duplicates accumulate on backward."""
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    a = table
    data = table.data[idx]

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx.reshape(-1), g.reshape(-1, a.shape[1]))
        a._accumulate(full, owned=True)

    return Tensor._from_op(data, (a,), bw)


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood over unmasked positions.

    ``logits`` is [..., V]; ``targets`` holds class indices with the leading
    shape of ``logits``; ``mask`` flags which positions count.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} != logits leading shape {logits.shape[:-1]}")
    vocab = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(f"target index out of range [0, {vocab})")
    if mask is None:
        mask = np.ones(targets.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != targets.shape:
            raise ShapeError(f"mask shape {mask.shape} != targets shape {targets.shape}")
    n = int(mask.sum())
    if n == 0:
        raise EmptyLossError("cross_entropy over an all-masked batch")

    a = logits
    flat = logits.data.reshape(-1, vocab)
    shifted = flat - flat.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    tflat = targets.reshape(-1)
    mflat = mask.reshape(-1)
    picked = logp[np.arange(tflat.size), tflat]
    loss = -(picked * mflat).sum() / n

    def bw(g):
        soft = np.exp(logp)
        dflat = soft.copy()
        dflat[np.arange(tflat.size), tflat] -= 1.0
        dflat *= (mflat / n)[:, None]
        a._accumulate(float(g) * dflat.reshape(a.shape))

    return Tensor._from_op(np.asarray(loss), (a,), bw)


def grad_check(f, x: Tensor, eps: float = 1e-4) -> float:
    """Max relative error between backprop and central finite differences.

    ``f`` must map ``x`` to a scalar Tensor and be re-invocable (it is called
    four times per coordinate). The numeric derivative is the 4-point central
    stencil (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h with h = eps: its
    truncation error is O(h^4), so h can be large enough that the round-off of
    f, divided by h, stays far below a small gradient. Relative error uses the
    denominator max(|analytic|, |numeric|, 1e-8). Only the first, analytic call
    of ``f`` records a tape; the stencil's calls run under ``no_grad``.
    """
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            at = []
            for step in (eps, -eps, 2.0 * eps, -2.0 * eps):
                flat[i] = orig + step
                at.append(float(f(x).data))
            flat[i] = orig
            nflat[i] = (8.0 * (at[0] - at[1]) - (at[2] - at[3])) / (12.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


class RngState:
    """Deterministic random source: one seed, documented PCG64 streams.

    The same (seed, spawn key) pair yields a bit-identical sample stream on
    every run and platform. Substreams for independent concerns (parameter
    init, data shuffling, noise) come from ``child`` with fixed integer tags.
    """

    ALGORITHM = "pcg64"

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = _key
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=_key)))

    def child(self, tag: int) -> "RngState":
        return RngState(self.seed, self._key + (int(tag),))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def choice(self, seq, size=None, replace=True):
        return self._gen.choice(seq, size=size, replace=replace)
