"""Minimal differentiable-function subsystem: dense layers, a single-layer
LSTM, a tanh-squashed Gaussian policy head, Adam, and a central
finite-difference gradient checker.

Conventions: batched inputs are row-major, x: (B, D) and sequences
xs: (B, T, D).  Forward passes return (output, cache) so evaluation on
read-only parameters stays re-entrant; backward passes consume the cache,
accumulate into each block's .grad, and also return the local gradients.
Training runs in float32; oracles and finite-difference fixtures construct
layers with dtype=np.float64.

Parameter arenas: a ParamArena lays the blocks one optimizer trains end to
end in one flat values/grad/adam_m/adam_v vector each, and every block's
arrays become reshaped views of those vectors.  Blocks keep their names,
shapes and checkpoint keys, but one adam_step on the arena (or one Polyak
expression over its values) updates the whole group, and the Adam step count
lives on the arena.

Allocator policy: on Linux with glibc, importing this module stops malloc
from returning freed memory at the top of the heap to the kernel and from
serving large arrays with mmap (see _keep_freed_memory).
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
CHECKPOINT_VERSION = 1

#: Fault-injection switches for negative-control tests: a named fault makes
#: the corresponding backward pass deliberately wrong.
_FAULTS: set = set()


def inject_fault(name: str) -> None:
    _FAULTS.add(name)


def clear_faults() -> None:
    _FAULTS.clear()


def _keep_freed_memory() -> None:
    """Keep freed heap memory mapped so the next allocation does not fault it in.

    Each batched LSTM.forward in segment_targets frees about 0.5 MB of
    arrays.  With glibc's default, dynamic thresholds that memory is trimmed
    from the top of the heap (or unmapped) and faulted back in on the next
    call, at about 1.4 us per 4 KiB page; whether a build pays this depends
    on its heap layout.  One sinusoid_train training run with evaluation
    (seed 1) took 192,384 minor faults with the defaults and 6,766 with
    fixed 64 MiB trim and mmap thresholds, which keep such arrays on the
    heap and their freed pages mapped.  Elsewhere this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return
    if not hasattr(libc, "gnu_get_libc_version"):  # the keys below are glibc's
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_trim_threshold, 64 << 20)
    libc.mallopt(m_mmap_threshold, 64 << 20)


_keep_freed_memory()


class ParamBlock:
    """One named tensor of trainable parameters with its Adam state.

    A block inside a ParamArena holds views of the arena's vectors and
    shares its step_count, so stepping either advances the count of both.
    """

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.values = values
        self.grad = np.zeros_like(values)
        self.adam_m = np.zeros_like(values)
        self.adam_v = np.zeros_like(values)
        # one-element list that an arena shares with its blocks; a reference
        # from block to arena would be a cycle, and agents would then wait
        # for the cyclic garbage collector instead of being freed at once
        self._steps = [0]

    @property
    def step_count(self) -> int:
        return self._steps[0]

    @step_count.setter
    def step_count(self, value: int) -> None:
        self._steps[0] = value

    @property
    def parts(self) -> list:
        """The named blocks this one is made of: itself."""
        return [self]

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class ParamArena(ParamBlock):
    """The blocks one optimizer trains, laid end to end in flat vectors.

    values, grad, adam_m and adam_v are each one contiguous 1-D array, and
    every block's arrays become reshaped views of them (current contents are
    kept), so adam_step on the arena is one step of every block in it.
    """

    def __init__(self, name: str, blocks):
        blocks = list(blocks)
        super().__init__(name, np.concatenate([b.values.ravel() for b in blocks]))
        self.step_count = blocks[0].step_count
        self._parts = blocks
        offset = 0
        for b in blocks:
            shape, end = b.values.shape, offset + b.values.size
            for attr in ("values", "grad", "adam_m", "adam_v"):
                view = getattr(self, attr)[offset:end]
                view[...] = getattr(b, attr).ravel()
                setattr(b, attr, view.reshape(shape))
            b._steps = self._steps
            offset = end

    @property
    def parts(self) -> list:
        return self._parts


def zero_grads(blocks) -> None:
    for b in blocks:
        b.zero_grad()


def _non_finite_part(block: ParamBlock, attr: str) -> str:
    return next(p.name for p in block.parts if not np.all(np.isfinite(getattr(p, attr))))


def adam_step(block: ParamBlock, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Bias-corrected Adam update in place; clears the gradient afterwards.

    block may be one ParamBlock or a ParamArena; the update is elementwise,
    so one step of an arena equals one step of each of its blocks bit for
    bit.  A non-finite gradient or result is reported by block name.
    """
    grad = block.grad
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(
            f"non-finite gradient in parameter block {_non_finite_part(block, 'grad')!r}")
    block.step_count += 1
    t = block.step_count
    m, v = block.adam_m, block.adam_v
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * np.square(grad)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    block.values -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(block.values.dtype)
    if not np.all(np.isfinite(block.values)):
        raise FloatingPointError(
            f"non-finite values in parameter block {_non_finite_part(block, 'values')!r} after update")
    block.zero_grad()


# -- dense layer -------------------------------------------------------------------


class Dense:
    """Affine layer with an optional tanh nonlinearity: activation(x @ W.T + b)."""

    def __init__(self, name: str, in_dim: int, out_dim: int, activation: str = "tanh",
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if activation not in ("tanh", "identity"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.dtype = dtype
        rng = rng if rng is not None else np.random.default_rng(0)
        scale = math.sqrt(6.0 / (in_dim + out_dim))
        self.W = ParamBlock(f"{name}.W", rng.uniform(-scale, scale, (out_dim, in_dim)).astype(dtype))
        self.b = ParamBlock(f"{name}.b", np.zeros(out_dim, dtype=dtype))

    @property
    def blocks(self) -> list:
        return [self.W, self.b]

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"dense layer expects (B, {self.in_dim}) input, got {x.shape}")
        pre = x @ self.W.values.T + self.b.values
        out = np.tanh(pre) if self.activation == "tanh" else pre
        return out, (x, out)

    def backward(self, cache, dout: np.ndarray, accumulate: bool = True):
        """Returns (dx, dW, db); accumulates dW, db into the blocks by default."""
        x, out = cache
        dout = np.asarray(dout, dtype=self.dtype)
        if dout.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"upstream gradient shape {dout.shape} does not match output")
        dpre = dout * (1.0 - np.square(out)) if self.activation == "tanh" else dout
        dW = dpre.T @ x
        db = dpre.sum(axis=0)
        dx = dpre @ self.W.values
        if accumulate:
            self.W.grad += dW
            self.b.grad += db
        return dx, dW, db


# -- LSTM --------------------------------------------------------------------------


class LSTM:
    """Single-layer LSTM; gates packed (input, forget, candidate, output).

    W has shape (4H, D+H) acting on [x_t, h_{t-1}]; the forget-gate bias is
    initialized at +1 so early training does not erase the cell state.
    The input projection of all T steps is one GEMM before the time loop,
    and each step takes all four gates from one tanh through
    sigmoid(z) = 0.5 + 0.5 * tanh(z / 2), which cannot overflow.
    """

    def __init__(self, name: str, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.dtype = dtype
        rng = rng if rng is not None else np.random.default_rng(0)
        scale = 1.0 / math.sqrt(hidden_dim)
        w = rng.uniform(-scale, scale, (4 * hidden_dim, in_dim + hidden_dim)).astype(dtype)
        b = np.zeros(4 * hidden_dim, dtype=dtype)
        b[hidden_dim:2 * hidden_dim] = 1.0
        self.W = ParamBlock(f"{name}.W", w)
        self.b = ParamBlock(f"{name}.b", b)
        # gates = tanh(z * scale) * scale + shift: sigmoid on i, f, o; tanh on g
        self._scale = np.full(4 * hidden_dim, 0.5, dtype=dtype)
        self._scale[2 * hidden_dim:3 * hidden_dim] = 1.0
        self._shift = np.full(4 * hidden_dim, 0.5, dtype=dtype)
        self._shift[2 * hidden_dim:3 * hidden_dim] = 0.0

    @property
    def blocks(self) -> list:
        return [self.W, self.b]

    def forward(self, xs: np.ndarray):
        """xs: (B, T, D) -> hidden sequence (B, T, H) plus a cache for backward.

        The state starts at zero.  Internally arrays are time-major, so each
        step reads and writes contiguous (B, .) slices; hs is a (B, T, H) view.
        """
        xs = np.asarray(xs, dtype=self.dtype)
        if xs.ndim != 3 or xs.shape[2] != self.in_dim:
            raise ValueError(f"lstm expects (B, T, {self.in_dim}) input, got {xs.shape}")
        B, T, D = xs.shape
        H = self.hidden_dim
        W = self.W.values
        w_h = W[:, D:].T
        scale, shift = self._scale, self._shift
        x_tm = xs.transpose(1, 0, 2).reshape(T * B, D)
        gates = (x_tm @ W[:, :D].T + self.b.values).reshape(T, B, 4 * H)
        # hs[t + 1], cs[t + 1] hold the state after step t; row 0 is the zero state
        hs = np.zeros((T + 1, B, H), dtype=self.dtype)
        cs = np.zeros((T + 1, B, H), dtype=self.dtype)
        tanh_cs = np.empty((T, B, H), dtype=self.dtype)
        for t in range(T):
            z = gates[t]
            if t > 0:
                z += hs[t] @ w_h
            z *= scale
            np.tanh(z, out=z)
            z *= scale
            z += shift
            c = cs[t + 1]
            np.multiply(z[:, 0:H], z[:, 2 * H:3 * H], out=c)
            if t > 0:
                c += z[:, H:2 * H] * cs[t]
            np.tanh(c, out=tanh_cs[t])
            np.multiply(z[:, 3 * H:], tanh_cs[t], out=hs[t + 1])
        return hs[1:].transpose(1, 0, 2), (x_tm, hs, cs, tanh_cs, gates)

    def backward(self, cache, dhs: np.ndarray):
        """Full backpropagation through time; accumulates into W.grad and b.grad.

        dhs: (B, T, H) upstream gradient on every hidden output (zero rows
        for unused steps).  Returns (dxs, dW, db).
        """
        x_tm, hs, cs, tanh_cs, gates = cache
        T, B, H = tanh_cs.shape
        D = x_tm.shape[1]
        dhs = np.asarray(dhs, dtype=self.dtype)
        if dhs.shape != (B, T, H):
            raise ValueError(f"upstream gradient shape {dhs.shape} does not match hidden sequence")
        i, f, g, o = (gates[:, :, k * H:(k + 1) * H] for k in range(4))
        # dgate/dz = (1 - y) * (y + scale - shift): y(1 - y) on i, f, o and 1 - y^2 on g;
        # times the gate's partner it gives dz = local * [dc, dc, dc, dh]
        local = (1.0 - gates) * (gates + (self._scale - self._shift))
        local *= np.concatenate([g, cs[:-1], i, tanh_cs], axis=2)
        local = local.reshape(T, B, 4, H)
        dh_c = o * (1.0 - np.square(tanh_cs))
        w_h = self.W.values[:, D:]
        dz = np.empty((T, B, 4, H), dtype=self.dtype)
        for t in range(T - 1, -1, -1):
            if t == T - 1:
                dh = dhs[:, t]
                dc = dh * dh_c[t]
            else:
                dh = dhs[:, t] + dz[t + 1].reshape(B, 4 * H) @ w_h
                dc = dh * dh_c[t] + dc * f[t + 1]
            np.multiply(local[t, :, :3], dc[:, None, :], out=dz[t, :, :3])
            np.multiply(local[t, :, 3], dh, out=dz[t, :, 3])
        dz = dz.reshape(T * B, 4 * H)
        dW = np.concatenate([dz.T @ x_tm, dz.T @ hs[:-1].reshape(T * B, H)], axis=1)
        db = dz.sum(axis=0)
        dxs = (dz @ self.W.values[:, :D]).reshape(T, B, D).transpose(1, 0, 2)
        if "lstm-backward" in _FAULTS:
            dW = dW * 1.05 + 1e-3
        self.W.grad += dW
        self.b.grad += db
        return dxs, dW, db


# -- squashed Gaussian policy head ---------------------------------------------------


def _log1m_tanh_sq(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2) = 2*(log 2 - u - softplus(-2u)), exact and overflow-safe
    return 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def squashed_gaussian(mean, log_std, eps, h_max: float):
    """Reparameterized draw a = h_max * tanh(mean + exp(log_std) * eps).

    Returns (action, log_density, cache).  log_std is clamped to
    [LOG_STD_MIN, LOG_STD_MAX]; the clamp zeroes the log_std gradient outside
    that range.  The log-density includes the change-of-variables correction
    for the scaled tanh, so exp(log_density) integrates to 1 over actions.
    """
    mean = np.asarray(mean, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    clamped = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
    std = np.exp(clamped)
    u = mean + std * eps
    tanh_u = np.tanh(u)
    action = h_max * tanh_u
    log_density = (
        -0.5 * np.square(eps)
        - clamped
        - 0.5 * math.log(2.0 * math.pi)
        - math.log(h_max)
        - _log1m_tanh_sq(u)
    )
    cache = (clamped, std, eps, tanh_u, log_std)
    return action, log_density, cache


def squashed_gaussian_grads(cache, h_max: float):
    """Partials of (action, log_density) w.r.t. (mean, log_std) at a cached draw.

    Returns (da_dmean, da_dlog_std, dlogp_dmean, dlogp_dlog_std).  Used by the
    actor update; the noise eps is held fixed (reparameterization trick).
    """
    clamped, std, eps, tanh_u, raw_log_std = cache
    inside = ((raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)).astype(np.float64)
    sech_sq = 1.0 - np.square(tanh_u)
    du_dlog_std = std * eps * inside
    da_dmean = h_max * sech_sq
    da_dlog_std = h_max * sech_sq * du_dlog_std
    dlogp_dmean = 2.0 * tanh_u
    dlogp_dlog_std = -1.0 * inside + 2.0 * tanh_u * du_dlog_std
    return da_dmean, da_dlog_std, dlogp_dmean, dlogp_dlog_std


def squashed_gaussian_log_density(action, mean, log_std, h_max: float):
    """Log-density of given actions under the squashed Gaussian (no gradients).

    Inverts the squash with atanh; |action|/h_max is nudged strictly inside
    (-1, 1) so saturated float32 actions stay finite.  Used when scoring
    stored behavior actions and when building gradient-free targets.
    """
    action = np.asarray(action, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    clamped = np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX)
    y = np.clip(action / h_max, -1.0 + 1e-9, 1.0 - 1e-9)
    u = np.arctanh(y)
    z = (u - mean) / np.exp(clamped)
    return (
        -0.5 * np.square(z)
        - clamped
        - 0.5 * math.log(2.0 * math.pi)
        - math.log(h_max)
        - _log1m_tanh_sq(u)
    )


# -- gradient checking ----------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    n_coordinates: int
    worst_block: str
    worst_index: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def gradient_check(loss_fn, blocks, rng: np.random.Generator, tolerance: float = 1e-4,
                   step: float = 1e-5, max_coords_per_block: int = 24) -> GradCheckReport:
    """Compare populated analytic gradients against central finite differences.

    loss_fn must be a pure, deterministic forward evaluation of the scalar
    loss at the current parameters (no gradient side effects); each block's
    .grad must already hold the analytic gradient for that same loss.  Large
    blocks are subsampled coordinate-wise with rng.
    """
    worst = (0.0, "", ())
    n_checked = 0
    for block in blocks:
        flat_values = block.values.reshape(-1)
        flat_grad = block.grad.reshape(-1)
        size = flat_values.shape[0]
        if size <= max_coords_per_block:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_block, replace=False)
        for idx in coords:
            original = flat_values[idx]
            flat_values[idx] = original + step
            f_plus = float(loss_fn())
            flat_values[idx] = original - step
            f_minus = float(loss_fn())
            flat_values[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = float(flat_grad[idx])
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))
            n_checked += 1
            if rel > worst[0]:
                worst = (rel, block.name, np.unravel_index(int(idx), block.values.shape))
    return GradCheckReport(
        max_rel_error=worst[0],
        n_coordinates=n_checked,
        worst_block=worst[1],
        worst_index=tuple(int(i) for i in worst[2]),
        tolerance=tolerance,
    )


# -- checkpointing --------------------------------------------------------------------


def save_checkpoint(path, blocks, extra: dict | None = None) -> None:
    """Serialize named parameter blocks (values plus Adam state) to .npz."""
    names = [b.name for b in blocks]
    if len(set(names)) != len(names):
        raise ValueError("parameter block names must be unique")
    arrays = {"__version__": np.int64(CHECKPOINT_VERSION), "__names__": np.array(names)}
    for b in blocks:
        arrays[f"{b.name}:values"] = b.values
        arrays[f"{b.name}:adam_m"] = b.adam_m
        arrays[f"{b.name}:adam_v"] = b.adam_v
        arrays[f"{b.name}:step_count"] = np.int64(b.step_count)
    for key, value in (extra or {}).items():
        arrays[f"extra:{key}"] = value
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple:
    """Returns ({name: ParamBlock}, {extra_key: array})."""
    blocks = {}
    extra = {}
    with np.load(path, allow_pickle=False) as z:
        version = int(z["__version__"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        for name in z["__names__"]:
            name = str(name)
            block = ParamBlock(name, z[f"{name}:values"].copy())
            block.adam_m = z[f"{name}:adam_m"].copy()
            block.adam_v = z[f"{name}:adam_v"].copy()
            block.step_count = int(z[f"{name}:step_count"])
            blocks[name] = block
        for key in z.files:
            if key.startswith("extra:"):
                extra[key[len("extra:"):]] = z[key].copy()
    return blocks, extra


def load_into(blocks, saved: dict) -> None:
    """Copy saved ParamBlocks into live ones, matching by name."""
    for b in blocks:
        if b.name not in saved:
            raise KeyError(f"checkpoint is missing parameter block {b.name!r}")
        src = saved[b.name]
        if src.values.shape != b.values.shape:
            raise ValueError(
                f"shape mismatch for {b.name!r}: checkpoint {src.values.shape}, live {b.values.shape}"
            )
        b.values[...] = src.values.astype(b.values.dtype)
        b.adam_m[...] = src.adam_m.astype(b.adam_m.dtype)
        b.adam_v[...] = src.adam_v.astype(b.adam_v.dtype)
        b.step_count = src.step_count
