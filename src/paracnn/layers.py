"""Neural building blocks on top of the tensor engine.

All parameters are float64 Tensors initialized uniform(-1/sqrt(fan_in),
+1/sqrt(fan_in)) from a seeded RngState, and every layer exposes
``named_parameters()`` so optimizers and checkpoints see one flat registry.
"""

from __future__ import annotations

import numpy as np

from .tensor import RngState, ShapeError, Tensor, _unbroadcast, gather_rows

MASK_NEG = 1e9


def _param(rng: RngState, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class Layer:
    """Base for parameterized blocks: a nested parameter registry."""

    def named_parameters(self) -> dict:
        """Each trainable Tensor by its attribute path; a layer in a list attribute is
        named by its index, one in a dict attribute by its key."""
        out = {}
        for name, val in vars(self).items():
            if isinstance(val, Tensor) and val.requires_grad:
                out[name] = val
                continue
            if isinstance(val, list):
                members = {f"{name}.{i}": item for i, item in enumerate(val)}
            elif isinstance(val, dict):
                members = {f"{name}.{key}": item for key, item in val.items()}
            else:
                members = {name: val}
            for prefix, layer in members.items():
                if isinstance(layer, Layer):
                    for sub, p in layer.named_parameters().items():
                        out[f"{prefix}.{sub}"] = p
        return out


class Linear(Layer):
    def __init__(self, rng: RngState, in_dim: int, out_dim: int, bias: bool = True):
        self.W = _param(rng, (in_dim, out_dim), in_dim)
        if bias:
            self.b = _param(rng, (out_dim,), in_dim)

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.W
        return out + self.b if hasattr(self, "b") else out


# Tile (outer axes, input channels) of the conv weight re-layout. For one
# 512-channel, kernel-5 weight a plain transposed copy reads with a 20 KB
# stride and took 47 ms, these tiles 8 ms (x86-64 Xeon, numpy 2.4, one core).
_TILE = (128, 8)


def _conv_weight_to_gemm(w: np.ndarray) -> np.ndarray:
    """[2*out, in, k] -> a new C-contiguous [k*in, 2*out] array, copied in tiles.

    Row tau*in + c, column o holds w[o, c, tau]: the weight as the right-hand
    GEMM operand of the tap-major windows ``CausalConvBlock`` builds.
    """
    out2, cin, k = w.shape
    out = np.empty((k, cin, out2))  # w.transpose(2, 1, 0)
    t, tc = _TILE
    for i in range(0, out2, t):
        for c in range(0, cin, tc):
            for j in range(0, k, t):
                out[j:j + t, c:c + tc, i:i + t] = w[i:i + t, c:c + tc, j:j + t].T
    return out.reshape(k * cin, out2)


class CausalConvBlock(Layer):
    """Gated causal 1-D convolution: left zero-padding, A * sigmoid(B) halves.

    Output at position t depends on inputs at positions <= t only. The
    pre-activation splits into a linear half A (columns [0, out)) and a gate
    half B, and the block adds its input back: every block maps ``channels``
    channels to as many, with a residual.

    The weight is held in GEMM layout [kernel*in_channels, 2*out_channels]:
    row tau*in + c, column o weights channel c of the frame (k-1-tau) steps in
    the past for output o, so the forward pass multiplies the stacked windows
    by it with no per-call copy. It is drawn as a [2*out, in, kernel] array
    (the usual convolution layout, so the seeded values do not depend on the
    GEMM layout) and re-laid out once here.
    """

    def __init__(self, rng: RngState, channels: int, kernel_size: int):
        if kernel_size < 1:
            raise ShapeError("kernel_size must be >= 1")
        self.in_channels = self.out_channels = channels
        self.kernel_size = kernel_size
        fan_in = channels * kernel_size
        self.weight = _param(rng, (2 * channels, channels, kernel_size), fan_in)
        self.weight.data = _conv_weight_to_gemm(self.weight.data)
        self.bias = _param(rng, (2 * channels,), fan_in)

    def __call__(self, x: Tensor) -> Tensor:
        """x: [..., T, in_channels] -> [..., T, out_channels]."""
        self._check_channels(x)
        T, cin, k = x.shape[-2], self.in_channels, self.kernel_size
        xp = np.concatenate([np.zeros(x.shape[:-2] + (k - 1, cin)), x.data], axis=-2)
        # window tap tau sees the frame (k-1-tau) steps in the past; stacking
        # the taps on the channel axis turns the convolution into one GEMM
        windows = np.concatenate([xp[..., tau:tau + T, :] for tau in range(k)], axis=-1)

        def window_grad(dw):
            dxp = np.zeros(xp.shape)
            for tau in range(k):
                dxp[..., tau:tau + T, :] += dw[..., tau * cin:(tau + 1) * cin]
            x._accumulate(dxp[..., k - 1:, :])

        return self._gated(windows, (x,), window_grad)

    def step(self, x: Tensor, history: list) -> Tensor:
        """One new frame x: [..., in_channels] -> its output [..., out_channels].

        ``history`` holds the block's previous input frames, oldest first; it
        is extended by x and trimmed to the last k-1 frames in place. Taps
        older than the history are zero, as the left padding of ``__call__``
        makes them, so stepping frames 1..T one by one gives the rows of
        ``__call__`` over the whole sequence.
        """
        self._check_channels(x)
        cin, k = self.in_channels, self.kernel_size
        inputs = tuple(history) + (x,)
        pad = cin * (k - len(inputs))  # zero columns for the taps older than the history
        windows = np.concatenate([np.zeros(x.shape[:-1] + (pad,))]
                                 + [t.data for t in inputs], axis=-1)

        def window_grad(dw):
            for i, t in enumerate(inputs):
                if t.requires_grad:
                    t._accumulate(dw[..., pad + i * cin:pad + (i + 1) * cin])

        out = self._gated(windows, inputs, window_grad)
        history.append(x)
        # max(0, ...): a negative bound would drop taps while history is short
        del history[:max(0, len(history) - (k - 1))]
        return out

    def _check_channels(self, x: Tensor):
        if x.shape[-1] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[-1]}")

    def _gated(self, windows: np.ndarray, inputs: tuple, window_grad) -> Tensor:
        """Tap-major windows [..., k*in] -> gated output [..., out], as one tape node.

        ``inputs`` are the tensors the windows were cut from, the new frames x
        [..., in] last; the node's parents are they, the weight and the bias.
        ``window_grad`` hands a gradient of the windows on to ``inputs``. The
        backward sums each gradient in the order the tape of the composition
        (GEMM, bias, halves, sigmoid, gate, residual) did, so its result is the
        same bit for bit: d_pre is [g*s | (g*a)*s*(1-s)], the bias gets its sum
        over the leading axes, and x gets the residual before its window slices.
        """
        out_c = self.out_channels
        x = inputs[-1]
        w2 = windows.reshape(-1, windows.shape[-1])
        pre = (w2 @ self.weight.data).reshape(windows.shape[:-1] + (2 * out_c,))
        pre += self.bias.data
        a = pre[..., :out_c]
        s = 1.0 / (1.0 + np.exp(-pre[..., out_c:]))
        out = a * s
        out += x.data

        def bw(g):
            d_pre = np.empty(pre.shape)
            np.multiply(g, s, out=d_pre[..., :out_c])
            db = np.multiply(g, a, out=d_pre[..., out_c:])
            db *= s
            db *= 1.0 - s
            if x.requires_grad:
                x._accumulate(g)
            if self.bias.requires_grad:
                self.bias._accumulate(d_pre.sum(axis=tuple(range(d_pre.ndim - 1))), owned=True)
            d2 = d_pre.reshape(-1, 2 * out_c)
            if any(t.requires_grad for t in inputs):
                window_grad((d2 @ self.weight.data.T).reshape(windows.shape))
            if self.weight.requires_grad:
                self.weight._accumulate(w2.T @ d2, owned=True)

        return Tensor._from_op(out, inputs + (self.weight, self.bias), bw)


class Embedding(Layer):
    """Token lookup table followed by two trainable linear maps."""

    def __init__(self, rng: RngState, vocab_size: int, dim: int):
        self.vocab_size = vocab_size
        self.table = _param(rng, (vocab_size, dim), dim)
        self.l1 = Linear(rng, dim, dim)
        self.l2 = Linear(rng, dim, dim)

    def __call__(self, indices) -> Tensor:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.vocab_size):
            raise IndexError(f"token index out of range [0, {self.vocab_size})")
        return self.l2(self.l1(gather_rows(self.table, idx)))


def tanh_of_sum(a: Tensor, b: Tensor) -> Tensor:
    """``(a + b).tanh()`` as one tape node, for operands that broadcast together.

    The sum is written once and its tanh taken in place, so the tape keeps one
    array where ``(a + b).tanh()`` keeps two. The backward runs that pair's two
    rules in their order: d = g * (1 - y*y), reduced onto ``a``, then onto ``b``.
    """
    y = a.data + b.data
    np.tanh(y, out=y)

    def bw(g):
        d = g * (1.0 - y * y)
        if a.requires_grad:
            a._accumulate(_unbroadcast(d, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(d, b.shape))

    return Tensor._from_op(y, (a, b), bw)


class VisualAttention(Layer):
    """Additive soft attention over region features.

    weights_r = softmax_r( v . tanh(W_h h + W_v V_r) ), context = sum_r weights_r V_r.
    """

    def __init__(self, rng: RngState, query_dim: int, region_dim: int, attn_dim: int):
        self.Wh = _param(rng, (query_dim, attn_dim), query_dim)
        self.Wv = _param(rng, (region_dim, attn_dim), region_dim)
        self.v = _param(rng, (attn_dim, 1), attn_dim)

    def keys(self, regions: Tensor) -> Tensor:
        """regions [B, R, d_v] -> their score terms W_v V_r, [B, 1, R, attn].

        They do not depend on the query, so a caller attending to the same
        regions again (one call per decoded word) computes them once.
        """
        B, R, _ = regions.shape
        return (regions @ self.Wv).reshape(B, 1, R, self.Wv.shape[1])

    def __call__(self, h: Tensor, regions: Tensor, keys: Tensor, region_mask=None):
        """h: [B, T, d] with regions [B, R, d_v], their ``keys(regions)`` and an
        optional [B, R] mask.

        Returns (context [B, T, d_v], weights [B, T, R]); weights form a
        probability simplex over regions (masked regions get weight 0).
        """
        B, T, _ = h.shape
        R = regions.shape[-2]
        hw = (h @ self.Wh).reshape(B, T, 1, self.Wh.shape[1])
        scores = (tanh_of_sum(hw, keys) @ self.v).reshape(B, T, R)
        if region_mask is not None:
            m = np.asarray(region_mask, dtype=np.float64).reshape(B, 1, R)
            scores = scores + Tensor((m - 1.0) * MASK_NEG)
        weights = scores.softmax(axis=-1)
        context = weights @ regions
        return context, weights


class MultiHeadSelfAttention(Layer):
    """Full (non-causal) scaled dot-product self-attention with H heads."""

    def __init__(self, rng: RngState, dim: int, heads: int):
        if dim % heads != 0:
            raise ShapeError(f"model dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(rng, dim, dim)
        # a key bias shifts every score in a row equally, which softmax
        # ignores; the parameter would be exactly gradient-free
        self.wk = Linear(rng, dim, dim, bias=False)
        self.wv = Linear(rng, dim, dim)
        self.wo = Linear(rng, dim, dim)

    def _split(self, t: Tensor) -> Tensor:
        B, T, d = t.shape
        return t.reshape(B, T, self.heads, d // self.heads).transpose((0, 2, 1, 3))

    def attention_weights(self, x: Tensor, key_mask=None) -> Tensor:
        """Softmax attention rows [B, H, T, T] of x: [B, T, d]."""
        B, T, d = x.shape
        q, k = self._split(self.wq(x)), self._split(self.wk(x))
        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(d // self.heads))
        if key_mask is not None:
            m = np.asarray(key_mask, dtype=np.float64).reshape(B, 1, 1, T)
            scores = scores + Tensor((m - 1.0) * MASK_NEG)
        return scores.softmax(axis=-1)

    def __call__(self, x: Tensor, key_mask=None) -> Tensor:
        """x: [B, T, d] -> [B, T, d]; key_mask [B, T] flags the positions that may be attended."""
        B, T, d = x.shape
        attn = self.attention_weights(x, key_mask)
        out = (attn @ self._split(self.wv(x))).transpose((0, 2, 1, 3)).reshape(B, T, d)
        return self.wo(out)


class GruDirection(Layer):
    """One direction's weights of a gated recurrent layer (update, reset, candidate).

    ``BiGruCell`` runs both of its directions in one loop.
    """

    def __init__(self, rng: RngState, in_dim: int, hidden: int):
        self.hidden = hidden
        self.Wz = _param(rng, (in_dim, hidden), in_dim)
        self.Uz = _param(rng, (hidden, hidden), hidden)
        self.bz = _param(rng, (hidden,), hidden)
        self.Wr = _param(rng, (in_dim, hidden), in_dim)
        self.Ur = _param(rng, (hidden, hidden), hidden)
        self.br = _param(rng, (hidden,), hidden)
        self.Wh = _param(rng, (in_dim, hidden), in_dim)
        self.Uh = _param(rng, (hidden, hidden), hidden)
        self.bh = _param(rng, (hidden,), hidden)


class BiGruCell(Layer):
    """Bidirectional gated recurrent layer used by the Wasserstein critic."""

    def __init__(self, rng: RngState, in_dim: int, hidden: int):
        self.fwd = GruDirection(rng, in_dim, hidden)
        self.bwd = GruDirection(rng, in_dim, hidden)

    def __call__(self, seq: Tensor) -> Tensor:
        """seq: [B, T, d] -> final states of both directions, [B, 2*hidden], as one tape node.

        ``fwd`` reads frames 0..T-1 and ``bwd`` frames T-1..0. Both run in one
        loop over [2, B, hidden] states, each gate's U weights stacked
        [2, hidden, hidden] for one batched matmul per step (Appleyard et al.
        2016). Input projections are hoisted out of the loop, one GEMM per
        gate and direction over the whole sequence, so the loop only carries
        the h terms; it keeps every step's h, z, r, r*h and candidate.

        The hand-written BPTT keeps each step's gate pre-activation gradients
        and, after the loop, makes one GEMM per weight over all steps (one
        batched GEMM per stacked U). The input gradient is computed only when
        ``seq`` requires one.
        """
        B, T, d = seq.shape
        dirs = (self.fwd, self.bwd)
        H = self.fwd.hidden
        x2 = seq.data.transpose(1, 0, 2).reshape(T * B, d)  # rows (t, b)

        def inputs(W, b):
            # [T, 2, B, H]: step t of fwd reads frame t, of bwd frame T-1-t
            f, r = ((x2 @ getattr(k, W).data).reshape(T, B, H) + getattr(k, b).data
                    for k in dirs)
            return np.stack([f, r[::-1]], axis=1)

        xz, xr, xh = inputs("Wz", "bz"), inputs("Wr", "br"), inputs("Wh", "bh")
        Uz, Ur, Uh = (np.stack([getattr(k, U).data for k in dirs]) for U in ("Uz", "Ur", "Uh"))
        h = np.zeros((2, B, H))
        steps = []  # (h_prev, z, r, r*h_prev, candidate) per step
        for t in range(T):
            z = 1.0 / (1.0 + np.exp(-(xz[t] + h @ Uz)))
            r = 1.0 / (1.0 + np.exp(-(xr[t] + h @ Ur)))
            rh = r * h
            cand = np.tanh(xh[t] + rh @ Uh)
            steps.append((h, z, r, rh, cand))
            h = (1.0 - z) * h + z * cand

        def bw(g):
            # contiguous copies: a batched matmul takes them faster than transposed views
            UzT, UrT, UhT = (np.ascontiguousarray(U.transpose(0, 2, 1)) for U in (Uz, Ur, Uh))
            grads = [None] * T  # (daz, dar, dah) per step
            dh = np.stack([g[:, :H], g[:, H:]])
            for t in reversed(range(T)):
                h, z, r, rh, cand = steps[t]
                omz = 1.0 - z
                dah = dh * z * (1.0 - cand * cand)
                drh = dah @ UhT
                dar = drh * h * r * (1.0 - r)
                daz = dh * (cand - h) * z * omz
                grads[t] = daz, dar, dah
                dh = dh * omz + daz @ UzT + drh * r + dar @ UrT

            def over_steps(i, arrays):
                # [2, T*B, H]: direction-major, rows (t, b) in step order
                return np.stack([a[i] for a in arrays], axis=1).reshape(2, T * B, H)

            hs, rhs = over_steps(0, steps), over_steps(3, steps)
            for i, gate, prev in ((0, "z", hs), (1, "r", hs), (2, "h", rhs)):
                da = over_steps(i, grads)
                dU = prev.transpose(0, 2, 1) @ da
                for k, dk, dUk in zip(dirs, da.reshape(2, T, B, H), dU):
                    getattr(k, "U" + gate)._accumulate(dUk, owned=True)
                    dx = (dk if k is self.fwd else dk[::-1]).reshape(T * B, H)  # frame order
                    W = getattr(k, "W" + gate)
                    W._accumulate(x2.T @ dx, owned=True)
                    getattr(k, "b" + gate)._accumulate(dx.sum(axis=0), owned=True)
                    if seq.requires_grad:
                        seq._accumulate((dx @ W.data.T).reshape(T, B, d).transpose(1, 0, 2))

        params = tuple(p for k in dirs for p in k.named_parameters().values())
        return Tensor._from_op(np.concatenate([h[0], h[1]], axis=-1), (seq,) + params, bw)
