"""Minimal differentiable-function subsystem: dense layers, a single-layer
LSTM, a tanh-squashed Gaussian policy head, Adam, and a central
finite-difference gradient checker.

Conventions: batched inputs are row-major, x: (B, D) and sequences
xs: (B, T, D).  Forward passes return (output, cache) so evaluation on
read-only parameters stays re-entrant; backward passes consume the cache,
accumulate into each block's .grad, and also return the local gradients.
Training runs in float32; oracles and finite-difference fixtures construct
layers with dtype=np.float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class ParamBlock:
    """One named tensor of trainable parameters with its Adam state."""

    name: str
    values: np.ndarray
    grad: np.ndarray = field(init=False)
    adam_m: np.ndarray = field(init=False)
    adam_v: np.ndarray = field(init=False)
    step_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.grad = np.zeros_like(self.values)
        self.adam_m = np.zeros_like(self.values)
        self.adam_v = np.zeros_like(self.values)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def zero_grads(blocks) -> None:
    for b in blocks:
        b.zero_grad()


def adam_step(block: ParamBlock, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Bias-corrected Adam update in place; clears the gradient afterwards."""
    if not np.all(np.isfinite(block.grad)):
        raise FloatingPointError(f"non-finite gradient in parameter block {block.name!r}")
    block.step_count += 1
    t = block.step_count
    block.adam_m = beta1 * block.adam_m + (1.0 - beta1) * block.grad
    block.adam_v = beta2 * block.adam_v + (1.0 - beta2) * np.square(block.grad)
    m_hat = block.adam_m / (1.0 - beta1 ** t)
    v_hat = block.adam_v / (1.0 - beta2 ** t)
    block.values -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(block.values.dtype)
    if not np.all(np.isfinite(block.values)):
        raise FloatingPointError(f"non-finite values in parameter block {block.name!r} after update")
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # evaluate on the negative side only to avoid exp overflow
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class LSTM:
    """Single-layer LSTM; gates packed (input, forget, candidate, output).

    W has shape (4H, D+H) acting on [x_t, h_{t-1}]; the forget-gate bias is
    initialized at +1 so early training does not erase the cell state.
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

    @property
    def blocks(self) -> list:
        return [self.W, self.b]

    def forward(self, xs: np.ndarray, h0: np.ndarray | None = None, c0: np.ndarray | None = None):
        """xs: (B, T, D) -> hidden sequence (B, T, H) plus a cache for backward."""
        xs = np.asarray(xs, dtype=self.dtype)
        if xs.ndim != 3 or xs.shape[2] != self.in_dim:
            raise ValueError(f"lstm expects (B, T, {self.in_dim}) input, got {xs.shape}")
        B, T, _ = xs.shape
        H = self.hidden_dim
        h = np.zeros((B, H), dtype=self.dtype) if h0 is None else np.asarray(h0, dtype=self.dtype)
        c = np.zeros((B, H), dtype=self.dtype) if c0 is None else np.asarray(c0, dtype=self.dtype)
        hs = np.empty((B, T, H), dtype=self.dtype)
        steps = []
        for t in range(T):
            joint = np.concatenate([xs[:, t, :], h], axis=1)
            z = joint @ self.W.values.T + self.b.values
            i = _sigmoid(z[:, 0:H])
            f = _sigmoid(z[:, H:2 * H])
            g = np.tanh(z[:, 2 * H:3 * H])
            o = _sigmoid(z[:, 3 * H:4 * H])
            c_prev = c
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            hs[:, t, :] = h
            steps.append((joint, i, f, g, o, c_prev, tanh_c))
        return hs, (xs.shape, steps)

    def backward(self, cache, dhs: np.ndarray, accumulate: bool = True):
        """Full backpropagation through time.

        dhs: (B, T, H) upstream gradient on every hidden output (zero rows
        for unused steps).  Returns (dxs, dW, db).
        """
        (B, T, D), steps = cache
        H = self.hidden_dim
        dhs = np.asarray(dhs, dtype=self.dtype)
        if dhs.shape != (B, T, H):
            raise ValueError(f"upstream gradient shape {dhs.shape} does not match hidden sequence")
        dxs = np.empty((B, T, D), dtype=self.dtype)
        dW = np.zeros_like(self.W.values)
        db = np.zeros_like(self.b.values)
        dh_next = np.zeros((B, H), dtype=self.dtype)
        dc_next = np.zeros((B, H), dtype=self.dtype)
        for t in range(T - 1, -1, -1):
            joint, i, f, g, o, c_prev, tanh_c = steps[t]
            dh = dhs[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - np.square(tanh_c)) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - np.square(g)),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dW += dz.T @ joint
            db += dz.sum(axis=0)
            djoint = dz @ self.W.values
            dxs[:, t, :] = djoint[:, :D]
            dh_next = djoint[:, D:]
        if "lstm-backward" in _FAULTS:
            dW = dW * 1.05 + 1e-3
        if accumulate:
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
