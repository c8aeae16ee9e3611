"""Ingestion, standardization, environment slicing, and synthetic markets."""
from __future__ import annotations

import numpy as np
import pytest

from saclab.data import (
    CsvSchema,
    Dataset,
    IngestError,
    N_LAGS,
    ROLL_WINDOW,
    ingest_csv,
    separate_environments,
    standardize,
    synthesize_market,
    write_csv,
)


def small_dataset() -> Dataset:
    return synthesize_market(
        "random_walk", 40, {"vol": 2e-3, "half_spread": 0.02}, seed=5
    )


def test_csv_round_trip_is_bit_exact(tmp_path):
    data = small_dataset()
    path = tmp_path / "bars.csv"
    write_csv(data, path)
    back = ingest_csv(path)
    np.testing.assert_array_equal(back.timestamps, data.timestamps)
    np.testing.assert_array_equal(back.bids, data.bids)
    np.testing.assert_array_equal(back.asks, data.asks)
    np.testing.assert_array_equal(back.features, data.features)


def test_ingest_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,bid,ask,f0\n0,1.0,1.0,0.0\n")
    with pytest.raises(IngestError, match=r":1: header"):
        ingest_csv(path)


def test_ingest_rejects_wrong_feature_names(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,bid,ask,x0\n0,1.0,1.0,0.0\n")
    with pytest.raises(IngestError, match="feature columns"):
        ingest_csv(path)


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,bid,ask,f0\n"
        "0,1.0,1.1,0.0\n"
        "1,1.0,1.1\n"
    )
    with pytest.raises(IngestError, match=r":3: expected 4 fields, got 3"):
        ingest_csv(path)

    path.write_text(
        "timestamp,bid,ask,f0\n"
        "0,1.0,1.1,0.0\n"
        "1,oops,1.1,0.0\n"
    )
    with pytest.raises(IngestError, match=r":3:"):
        ingest_csv(path)


def test_ingest_rejects_crossed_quotes(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,bid,ask,f0\n"
        "0,1.0,1.1,0.0\n"
        "1,1.2,1.1,0.0\n"
    )
    with pytest.raises(IngestError, match="bar 1: bid 1.2 exceeds ask 1.1"):
        ingest_csv(path)


def test_ingest_rejects_timestamp_gaps(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,bid,ask,f0\n"
        "0,1.0,1.1,0.0\n"
        "1,1.0,1.1,0.0\n"
        "3,1.0,1.1,0.0\n"
    )
    with pytest.raises(IngestError, match="gap in the minute grid"):
        ingest_csv(path)
    path.write_text(
        "timestamp,bid,ask,f0\n"
        "5,1.0,1.1,0.0\n"
        "4,1.0,1.1,0.0\n"
    )
    with pytest.raises(IngestError, match="strictly increasing"):
        ingest_csv(path)


def test_ingest_empty_and_missing_files(tmp_path):
    with pytest.raises(IngestError, match="does not exist"):
        ingest_csv(tmp_path / "nope.csv")
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(IngestError, match="empty file"):
        ingest_csv(path)
    path.write_text("timestamp,bid,ask,f0\n")
    with pytest.raises(IngestError, match="no data rows"):
        ingest_csv(path)


def test_schema_feature_count_enforced(tmp_path):
    data = small_dataset()
    path = tmp_path / "bars.csv"
    write_csv(data, path)
    assert ingest_csv(path, CsvSchema(n_features=data.n_features)).n_features == data.n_features
    with pytest.raises(IngestError, match="feature columns"):
        ingest_csv(path, CsvSchema(n_features=3))


def test_dataset_arrays_are_read_only():
    data = small_dataset()
    with pytest.raises(ValueError):
        data.bids[0] = 1.0
    with pytest.raises(ValueError):
        data.features[0, 0] = 1.0


def test_standardize_uses_fit_range_statistics_only():
    data = small_dataset()
    fit = range(0, 25)
    z = standardize(data, fit)
    window = data.features[0:25]
    mean = window.mean(axis=0)
    std = window.std(axis=0)
    np.testing.assert_allclose(z.features[0:25].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.features[0:25].std(axis=0), 1.0, atol=1e-12)
    # rows outside the fit range use the same statistics, no re-fit
    np.testing.assert_allclose(
        z.features[30], (data.features[30] - mean) / std, rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(z.bids, data.bids)
    mean_out, std_out = z.feature_stats
    np.testing.assert_allclose(mean_out, mean, rtol=0, atol=0)
    np.testing.assert_allclose(std_out, std, rtol=0, atol=0)


def test_standardize_zero_variance_column_maps_to_zeros():
    flat = synthesize_market("flat", 20, {"base": 10.0})
    z = standardize(flat, range(0, 10))
    assert np.all(z.features == 0.0)


def test_standardize_validates_fit_range():
    data = small_dataset()
    with pytest.raises(ValueError, match="non-empty"):
        standardize(data, range(5, 5))
    with pytest.raises(ValueError, match="out of bounds"):
        standardize(data, range(0, len(data) + 1))
    with pytest.raises(ValueError, match="out of bounds"):
        standardize(data, range(0, 10, 2))


def test_separate_environments_layout():
    # 2 envs x 5 days x 10 minutes, 3 train days each
    data = synthesize_market("flat", 100, {"base": 10.0})
    splits = separate_environments(data, n_envs=2, days_per_env=5, train_days=3, minutes_per_day=10)
    assert len(splits) == 2
    s0, s1 = splits
    assert (s0.train, s0.validation, s0.test) == (range(0, 30), range(30, 40), range(40, 50))
    assert (s1.train, s1.validation, s1.test) == (range(50, 80), range(80, 90), range(90, 100))
    assert s0.env_id == 0 and s1.env_id == 1


def test_separate_environments_validation():
    data = synthesize_market("flat", 100, {"base": 10.0})
    with pytest.raises(ValueError, match="train_days"):
        separate_environments(data, n_envs=2, days_per_env=5, train_days=2, minutes_per_day=10)
    with pytest.raises(ValueError, match="dataset length"):
        separate_environments(data, n_envs=2, days_per_env=5, train_days=3, minutes_per_day=11)
    with pytest.raises(ValueError, match=">= 1"):
        separate_environments(data, n_envs=0, days_per_env=5, train_days=3, minutes_per_day=10)


def test_sinusoid_frozen_values():
    d = synthesize_market(
        "sinusoid", 16, {"base": 50.0, "amplitude": 2.0, "period": 8.0, "half_spread": 0.25}
    )
    expected_mids = np.array([
        50.0, 51.41421356237309, 52.0, 51.41421356237309,
        50.0, 48.58578643762691, 48.0, 48.58578643762691,
    ])
    np.testing.assert_allclose(d.mids[:8], expected_mids, rtol=0, atol=1e-12)
    assert float(d.bids[1]) == pytest.approx(51.16421356237309, abs=1e-12)
    assert float(d.asks[1]) == pytest.approx(51.66421356237309, abs=1e-12)
    # one full period later the mid repeats
    np.testing.assert_allclose(d.mids[8:16], d.mids[0:8], rtol=0, atol=1e-12)


def test_feature_columns_match_definitions():
    d = synthesize_market(
        "sinusoid", 16, {"base": 50.0, "amplitude": 2.0, "period": 8.0, "half_spread": 0.25}
    )
    assert d.n_features == N_LAGS + 2
    mids = d.mids
    rets = np.zeros(len(d))
    rets[1:] = 100.0 * np.diff(np.log(mids))
    # lag-1 column carries the just-completed return
    np.testing.assert_allclose(d.features[1, 0], rets[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(d.features[:, 0], rets, rtol=0, atol=1e-12)
    # lag-3 column at i is the return into bar i-2
    np.testing.assert_allclose(d.features[5, 2], rets[3], rtol=0, atol=1e-12)
    # pre-history rows are zero-filled
    np.testing.assert_array_equal(d.features[0], np.zeros(N_LAGS + 2))
    assert d.features[1, 1] == 0.0  # lag 2 not yet observable at i=1
    # rolling deviation and volatility over the trailing window
    i = 2
    np.testing.assert_allclose(
        d.features[i, N_LAGS], 100.0 * (mids[i] / np.mean(mids[: i + 1]) - 1.0),
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        d.features[i, N_LAGS + 1], np.std(rets[: i + 1]), rtol=0, atol=1e-12
    )
    i = ROLL_WINDOW + 3  # fully inside the window now (needs length > window)
    d2 = synthesize_market("sinusoid", 24, {"base": 50.0, "amplitude": 2.0, "period": 8.0})
    mids2 = d2.mids
    rets2 = np.zeros(len(d2))
    rets2[1:] = 100.0 * np.diff(np.log(mids2))
    np.testing.assert_allclose(
        d2.features[i, N_LAGS + 1],
        np.std(rets2[i - ROLL_WINDOW + 1 : i + 1]),
        rtol=0, atol=1e-12,
    )


def test_flat_market_has_zero_features():
    d = synthesize_market("flat", 12, {"base": 10.0})
    assert np.all(d.features == 0.0)
    np.testing.assert_array_equal(d.bids, d.asks)


def test_random_walk_reproducible_and_seed_sensitive():
    a = synthesize_market("random_walk", 30, {"vol": 1e-3, "half_spread": 0.01}, seed=9)
    b = synthesize_market("random_walk", 30, {"vol": 1e-3, "half_spread": 0.01}, seed=9)
    c = synthesize_market("random_walk", 30, {"vol": 1e-3, "half_spread": 0.01}, seed=10)
    np.testing.assert_array_equal(a.mids, b.mids)
    assert not np.array_equal(a.mids, c.mids)
    assert float(a.mids[1]) == pytest.approx(99.9197485251363, abs=1e-10)
    np.testing.assert_allclose(a.asks - a.bids, 0.02, rtol=0, atol=1e-13)


def test_synthesize_rejects_unknown_kind_and_params():
    with pytest.raises(ValueError, match="unknown synthetic kind"):
        synthesize_market("trend", 10)
    with pytest.raises(ValueError, match="unknown params"):
        synthesize_market("flat", 10, {"vol": 1e-3})
    with pytest.raises(ValueError, match="unknown params"):
        synthesize_market("sinusoid", 10, {"sigma": 1.0})
    with pytest.raises(ValueError, match="length"):
        synthesize_market("flat", 1)
    with pytest.raises(ValueError, match="amplitude"):
        synthesize_market("sinusoid", 10, {"amplitude": -1.0})
    with pytest.raises(ValueError, match="non-positive bid"):
        synthesize_market("flat", 10, {"base": 0.5, "half_spread": 1.0})


def test_dataset_validation():
    ts = np.arange(3)
    ones = np.ones(3)
    feats = np.zeros((3, 2))
    with pytest.raises(ValueError, match="non-empty"):
        Dataset(np.array([], dtype=np.int64), np.array([]), np.array([]), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="bid must be > 0"):
        Dataset(ts, np.array([1.0, -1.0, 1.0]), ones, feats)
    with pytest.raises(ValueError, match="finite"):
        Dataset(ts, np.array([1.0, np.nan, 1.0]), ones, feats)
    with pytest.raises(ValueError, match="features must be"):
        Dataset(ts, ones, ones, np.zeros(3))
    d = Dataset(ts, ones, ones, feats)
    assert len(d) == 3
    assert d.mid(0) == 1.0
