"""Minute-bar ingestion, z-score standardization, environment slicing, and
synthetic market generation.

The canonical on-disk format is CSV with header
``timestamp,bid,ask,f0,...,f{F-1}``: UTF-8, '.' decimal separator, one bar
per line, timestamps in epoch-minutes on a gapless grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class IngestError(ValueError):
    """Malformed input file; the message carries the offending line number."""


@dataclass(frozen=True)
class CsvSchema:
    """Expected column layout; n_features = None means infer from the header."""

    n_features: int | None = None


class Dataset:
    """Immutable column store of minute bars.

    Internally arrays (timestamps int64, bids/asks float64, features
    (N, F) float64).
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        bids: np.ndarray,
        asks: np.ndarray,
        features: np.ndarray,
        feature_stats: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.timestamps = np.ascontiguousarray(timestamps, dtype=np.int64)
        self.bids = np.ascontiguousarray(bids, dtype=np.float64)
        self.asks = np.ascontiguousarray(asks, dtype=np.float64)
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        self.feature_stats = feature_stats
        self._validate()
        for arr in (self.timestamps, self.bids, self.asks, self.features):
            arr.flags.writeable = False

    def _validate(self) -> None:
        n = len(self.timestamps)
        if n == 0:
            raise ValueError("dataset must be non-empty")
        if self.bids.shape != (n,) or self.asks.shape != (n,):
            raise ValueError("bid/ask arrays must match timestamp length")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("features must be (n_bars, n_features)")
        if not (np.all(np.isfinite(self.bids)) and np.all(np.isfinite(self.asks))):
            raise ValueError("prices must be finite")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        bad = np.flatnonzero(self.bids <= 0.0)
        if bad.size:
            raise ValueError(f"bar {bad[0]}: bid must be > 0")
        bad = np.flatnonzero(self.bids > self.asks)
        if bad.size:
            i = bad[0]
            raise ValueError(f"bar {i}: bid {self.bids[i]} exceeds ask {self.asks[i]}")
        if n > 1:
            steps = np.diff(self.timestamps)
            if np.any(steps <= 0):
                i = int(np.flatnonzero(steps <= 0)[0])
                raise ValueError(f"bar {i + 1}: timestamps must be strictly increasing")
            if np.any(steps != steps[0]):
                i = int(np.flatnonzero(steps != steps[0])[0])
                raise ValueError(f"bar {i + 1}: gap in the minute grid (spacing {steps[i]}, expected {steps[0]})")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def mid(self, i: int) -> float:
        return 0.5 * (float(self.bids[i]) + float(self.asks[i]))

    @property
    def mids(self) -> np.ndarray:
        return 0.5 * (self.bids + self.asks)


@dataclass(frozen=True)
class EnvironmentSplit:
    """Contiguous train / validation / test index ranges for one slice."""

    env_id: int
    train: range
    validation: range
    test: range

    def __post_init__(self) -> None:
        if not (self.train.stop == self.validation.start and self.validation.stop == self.test.start):
            raise ValueError("ranges must be contiguous and ordered train < validation < test")
        if min(len(self.train), len(self.validation), len(self.test)) == 0:
            raise ValueError("all ranges must be non-empty")


def ingest_csv(path: str | Path, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Parse a canonical bar CSV into a Dataset, enforcing all invariants.

    Errors carry 1-based line numbers (line 1 is the header).
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"{path}: file does not exist")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        n_feat = _check_header(header, schema, path)
        timestamps: list[int] = []
        bids: list[float] = []
        asks: list[float] = []
        feats: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + n_feat:
                raise IngestError(f"{path}:{line_no}: expected {3 + n_feat} fields, got {len(row)}")
            try:
                timestamps.append(int(row[0]))
                bids.append(float(row[1]))
                asks.append(float(row[2]))
                feats.append([float(x) for x in row[3:]])
            except ValueError as exc:
                raise IngestError(f"{path}:{line_no}: {exc}") from None
    if not timestamps:
        raise IngestError(f"{path}: no data rows")
    try:
        return Dataset(
            np.array(timestamps), np.array(bids), np.array(asks),
            np.array(feats).reshape(len(timestamps), n_feat),
        )
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from None


def _check_header(header: list[str], schema: CsvSchema, path: Path) -> int:
    expected_fixed = ["timestamp", "bid", "ask"]
    if [h.strip() for h in header[:3]] != expected_fixed:
        raise IngestError(f"{path}:1: header must start with {','.join(expected_fixed)}")
    feat_cols = [h.strip() for h in header[3:]]
    n_feat = schema.n_features if schema.n_features is not None else len(feat_cols)
    expected = [f"f{i}" for i in range(n_feat)]
    if feat_cols != expected:
        raise IngestError(
            f"{path}:1: feature columns must be f0..f{n_feat - 1}, got {feat_cols[:4]}..."
        )
    return n_feat


def write_csv(data: Dataset, path: str | Path) -> None:
    """Write the canonical CSV form; floats use repr so re-ingestion is bit-exact."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "bid", "ask"] + [f"f{i}" for i in range(data.n_features)])
        for i in range(len(data)):
            writer.writerow(
                [int(data.timestamps[i]), repr(float(data.bids[i])), repr(float(data.asks[i]))]
                + [repr(float(x)) for x in data.features[i]]
            )


def standardize(data: Dataset, fit_range: range) -> Dataset:
    """Z-score every feature column using statistics from fit_range only.

    Uses the population convention (divide by count).  Columns with zero
    variance over the fit range map to all-zeros instead of erroring: real
    feature sets contain dead columns.  Fitting on the training range only
    keeps later slices free of look-ahead leakage.
    """
    if len(fit_range) == 0:
        raise ValueError("fit_range must be non-empty")
    if fit_range.start < 0 or fit_range.stop > len(data) or fit_range.step != 1:
        raise ValueError(f"fit_range {fit_range} out of bounds for dataset of length {len(data)}")
    window = data.features[fit_range.start : fit_range.stop]
    mean = window.mean(axis=0)
    std = window.std(axis=0)  # population (ddof=0)
    safe_std = np.where(std == 0.0, 1.0, std)
    z = (data.features - mean) / safe_std
    z[:, std == 0.0] = 0.0
    return Dataset(data.timestamps, data.bids, data.asks, z, feature_stats=(mean, std))


def separate_environments(
    data: Dataset,
    n_envs: int,
    days_per_env: int,
    train_days: int,
    minutes_per_day: int,
) -> list[EnvironmentSplit]:
    """Slice the series into n_envs near-stationary blocks of whole days.

    Each block keeps the first train_days days for training, the next day
    for validation, and the final day for testing, so days_per_env must be
    train_days + 2.  The dataset length must match exactly: silent
    truncation would desynchronize the day grid.
    """
    if min(n_envs, days_per_env, train_days, minutes_per_day) < 1:
        raise ValueError("all separation parameters must be >= 1")
    if days_per_env != train_days + 2:
        raise ValueError(
            f"days_per_env ({days_per_env}) must equal train_days + 2 ({train_days + 2}): "
            "one validation day and one test day"
        )
    expected = n_envs * days_per_env * minutes_per_day
    if len(data) != expected:
        raise ValueError(
            f"dataset length {len(data)} != n_envs * days_per_env * minutes_per_day = {expected}"
        )
    splits = []
    env_len = days_per_env * minutes_per_day
    for e in range(n_envs):
        base = e * env_len
        train_stop = base + train_days * minutes_per_day
        val_stop = train_stop + minutes_per_day
        splits.append(
            EnvironmentSplit(
                env_id=e,
                train=range(base, train_stop),
                validation=range(train_stop, val_stop),
                test=range(val_stop, base + env_len),
            )
        )
    return splits


# Synthetic feature layout: lagged percent log-returns of the mid price for
# lags 1..N_LAGS, then rolling mean deviation and rolling return volatility
# over ROLL_WINDOW bars.  Pre-history values are zero-filled.
N_LAGS = 6
ROLL_WINDOW = 16


def synthesize_market(
    kind: str,
    length: int,
    params: dict | None = None,
    seed: int = 0,
) -> Dataset:
    """Deterministic synthetic minute-bar market.

    kinds:
      flat        -- constant bid = ask = base
      random_walk -- geometric random walk mid with fixed half-spread;
                     params: base, vol (per-step log-return std), half_spread
      sinusoid    -- mid = base + amplitude * sin(2*pi*t / period);
                     params: base, amplitude, period, half_spread

    Features are N_LAGS lagged log-returns (x100) plus rolling mean
    deviation and rolling volatility of the mid price; fully determined by
    (kind, params, seed).
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    params = dict(params or {})
    base = float(params.pop("base", 100.0))
    if base <= 0.0:
        raise ValueError(f"base price must be > 0, got {base}")
    t = np.arange(length, dtype=np.float64)

    if kind == "flat":
        half_spread = float(params.pop("half_spread", 0.0))
        mid = np.full(length, base)
    elif kind == "random_walk":
        vol = float(params.pop("vol", 1e-4))
        half_spread = float(params.pop("half_spread", 0.0))
        rng = np.random.default_rng(seed)
        steps = rng.normal(0.0, vol, size=length - 1)
        mid = base * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    elif kind == "sinusoid":
        amplitude = float(params.pop("amplitude", 1.0))
        period = float(params.pop("period", 120.0))
        half_spread = float(params.pop("half_spread", 0.0))
        if amplitude <= 0.0:
            raise ValueError(f"amplitude must be > 0, got {amplitude}")
        if period <= 0.0:
            raise ValueError(f"period must be > 0, got {period}")
        mid = base + amplitude * np.sin(2.0 * np.pi * t / period)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if params:
        raise ValueError(f"unknown params for kind {kind!r}: {sorted(params)}")
    if half_spread < 0.0:
        raise ValueError("half_spread must be >= 0")

    bids = mid - half_spread
    asks = mid + half_spread
    if np.any(bids <= 0.0):
        raise ValueError("parameters produce non-positive bid prices")

    return Dataset(np.arange(length, dtype=np.int64), bids, asks, _mid_features(mid))


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Mean of x over the trailing window, truncated at the series start."""
    csum = np.concatenate([[0.0], np.cumsum(x)])
    hi = np.arange(1, len(x) + 1)
    lo = np.maximum(0, hi - window)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _mid_features(mid: np.ndarray) -> np.ndarray:
    n = len(mid)
    ret = np.zeros(n)
    ret[1:] = 100.0 * np.diff(np.log(mid))
    # Lag k at time i is the return into bar i-k+1 (lag 1 = the return that
    # just completed); values before the series start are zero-filled.
    cols = []
    for lag in range(1, N_LAGS + 1):
        lagged = np.zeros(n)
        lagged[lag - 1 :] = ret[: n - lag + 1]
        cols.append(lagged)
    mean_mid = _trailing_mean(mid, ROLL_WINDOW)
    roll_dev = 100.0 * (mid / mean_mid - 1.0)
    mean_ret = _trailing_mean(ret, ROLL_WINDOW)
    mean_ret_sq = _trailing_mean(ret * ret, ROLL_WINDOW)
    roll_vol = np.sqrt(np.maximum(0.0, mean_ret_sq - mean_ret * mean_ret))
    cols.extend([roll_dev, roll_vol])
    return np.column_stack(cols)
