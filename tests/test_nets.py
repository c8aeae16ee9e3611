"""Dense/LSTM layers, squashed-Gaussian head, Adam, gradient checker."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from saclab.nets import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    LSTM,
    Dense,
    GradCheckReport,
    ParamBlock,
    adam_step,
    clear_faults,
    gradient_check,
    inject_fault,
    load_checkpoint,
    load_into,
    save_checkpoint,
    squashed_gaussian,
    squashed_gaussian_grads,
    squashed_gaussian_log_density,
    zero_grads,
)


def test_dense_identity_frozen_values():
    d = Dense("d", 2, 2, activation="identity", dtype=np.float64)
    d.W.values[:] = np.array([[1.0, 2.0], [-0.5, 0.25]])
    d.b.values[:] = np.array([0.1, -0.2])
    out, _ = d.forward(np.array([[1.0, 1.0], [2.0, -1.0]]))
    np.testing.assert_allclose(out, [[3.1, -0.45], [0.1, -1.45]], rtol=0, atol=1e-15)


def test_dense_tanh_bounds_and_zero_input():
    d = Dense("d", 3, 4, activation="tanh", rng=np.random.default_rng(1), dtype=np.float64)
    out, _ = d.forward(np.zeros((2, 3)))
    np.testing.assert_allclose(out, np.tanh(d.b.values)[None, :].repeat(2, axis=0), atol=1e-15)
    out, _ = d.forward(np.random.default_rng(0).normal(size=(5, 3)) * 50)
    assert np.all(np.abs(out) <= 1.0)


def test_dense_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    d = Dense("d", 4, 3, activation="tanh", rng=rng, dtype=np.float64)
    x = rng.normal(size=(6, 4))
    upstream = rng.normal(size=(6, 3))

    def loss():
        out, _ = d.forward(x)
        return float(np.sum(out * upstream))

    zero_grads(d.blocks)
    d.backward(d.forward(x)[1], upstream)
    report = gradient_check(loss, d.blocks, rng, tolerance=1e-6, step=1e-6)
    assert report.passed, report


def test_dense_input_gradient():
    rng = np.random.default_rng(3)
    d = Dense("d", 3, 2, activation="tanh", rng=rng, dtype=np.float64)
    x = rng.normal(size=(2, 3))
    upstream = rng.normal(size=(2, 2))
    dx, _, _ = d.backward(d.forward(x)[1], upstream)
    step = 1e-6
    for i in range(2):
        for j in range(3):
            xp = x.copy(); xp[i, j] += step
            xm = x.copy(); xm[i, j] -= step
            numeric = (np.sum(d.forward(xp)[0] * upstream) - np.sum(d.forward(xm)[0] * upstream)) / (2 * step)
            assert dx[i, j] == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_dense_shape_validation():
    d = Dense("d", 3, 2, dtype=np.float64)
    with pytest.raises(ValueError, match="expects"):
        d.forward(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="upstream"):
        out, cache = d.forward(np.zeros((2, 3)))
        d.backward(cache, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="activation"):
        Dense("d", 3, 2, activation="relu")


def test_lstm_zero_parameters_give_zero_output():
    lstm = LSTM("l", 2, 3, dtype=np.float64)
    lstm.W.values[:] = 0.0
    lstm.b.values[:] = 0.0  # clears the +1 forget-bias initialization too
    hs, _ = lstm.forward(np.random.default_rng(0).normal(size=(2, 4, 2)))
    np.testing.assert_array_equal(hs, np.zeros((2, 4, 3)))


def test_lstm_forget_bias_initialized_to_one():
    lstm = LSTM("l", 2, 3, dtype=np.float64)
    np.testing.assert_array_equal(lstm.b.values[3:6], np.ones(3))
    np.testing.assert_array_equal(lstm.b.values[:3], np.zeros(3))
    np.testing.assert_array_equal(lstm.b.values[6:], np.zeros(6))


def test_lstm_length_one_equals_manual_cell():
    lstm = LSTM("l", 1, 2, rng=np.random.default_rng(5), dtype=np.float64)
    xs = np.array([[[0.7]]])
    hs, _ = lstm.forward(xs)
    W, b = lstm.W.values, lstm.b.values
    z = W @ np.array([0.7, 0.0, 0.0]) + b

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i, f, g, o = sig(z[0:2]), sig(z[2:4]), np.tanh(z[4:6]), sig(z[6:8])
    c = i * g  # previous cell is zero
    np.testing.assert_allclose(hs[0, 0], o * np.tanh(c), rtol=0, atol=1e-15)


def test_lstm_multi_step_matches_reference_cell():
    """Several steps from a nonzero state, with pre-activations out to |z| ~ 30."""
    rng = np.random.default_rng(12)
    B, T, D, H = 3, 6, 4, 5
    lstm = LSTM("l", D, H, rng=rng, dtype=np.float64)
    lstm.W.values[:] = rng.normal(0.0, 6.0, lstm.W.values.shape)
    lstm.b.values[:] = rng.normal(0.0, 2.0, lstm.b.values.shape)
    xs = rng.normal(size=(B, T, D))
    hs, _ = lstm.forward(xs)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    W, b = lstm.W.values, lstm.b.values
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    max_abs_z = 0.0
    for t in range(T):
        z = np.concatenate([xs[:, t], h], axis=1) @ W.T + b
        max_abs_z = max(max_abs_z, float(np.max(np.abs(z))))
        i, f, g, o = sig(z[:, :H]), sig(z[:, H:2 * H]), np.tanh(z[:, 2 * H:3 * H]), sig(z[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
        np.testing.assert_allclose(hs[:, t], h, rtol=0, atol=1e-12)
    assert max_abs_z > 25.0


def test_lstm_saturation_stays_finite_and_silent():
    lstm = LSTM("l", 2, 3, dtype=np.float32)
    lstm.W.values[:] = 1e4
    xs = np.full((2, 4, 2), 50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hs, cache = lstm.forward(xs)
        dxs, dW, db = lstm.backward(cache, np.ones_like(hs))
    assert np.all(np.isfinite(hs)) and np.all(np.abs(hs) <= 1.0)
    assert all(np.all(np.isfinite(a)) for a in (dxs, dW, db))


def test_lstm_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    lstm = LSTM("l", 3, 4, rng=rng, dtype=np.float64)
    xs = rng.normal(size=(2, 5, 3))
    upstream = rng.normal(size=(2, 5, 4))

    def loss():
        hs, _ = lstm.forward(xs)
        return float(np.sum(hs * upstream))

    zero_grads(lstm.blocks)
    lstm.backward(lstm.forward(xs)[1], upstream)
    report = gradient_check(loss, lstm.blocks, rng, tolerance=1e-5, step=1e-6,
                            max_coords_per_block=40)
    assert report.passed, report


def test_lstm_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    lstm = LSTM("l", 2, 3, rng=rng, dtype=np.float64)
    xs = rng.normal(size=(1, 4, 2))
    upstream = rng.normal(size=(1, 4, 3))
    dxs, _, _ = lstm.backward(lstm.forward(xs)[1], upstream)
    step = 1e-6
    for t in range(4):
        for d in range(2):
            xp = xs.copy(); xp[0, t, d] += step
            xm = xs.copy(); xm[0, t, d] -= step
            numeric = (np.sum(lstm.forward(xp)[0] * upstream)
                       - np.sum(lstm.forward(xm)[0] * upstream)) / (2 * step)
            assert dxs[0, t, d] == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_lstm_shape_validation():
    lstm = LSTM("l", 2, 3, dtype=np.float64)
    with pytest.raises(ValueError, match="expects"):
        lstm.forward(np.zeros((2, 4)))
    hs, cache = lstm.forward(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="upstream"):
        lstm.backward(cache, np.zeros((1, 3, 3)))


def test_squashed_gaussian_frozen_values_and_bounds():
    a, lp, _ = squashed_gaussian(0.3, -1.0, 0.5, 2.0)
    assert float(a) == pytest.approx(0.8987864948872318, abs=1e-14)
    assert float(lp) == pytest.approx(-0.511496310231073, abs=1e-12)
    # actions never exceed h_max even for extreme draws
    for eps in (-100.0, -3.0, 0.0, 3.0, 100.0):
        a, lp, _ = squashed_gaussian(0.0, 1.0, eps, 0.5)
        assert abs(float(a)) <= 0.5
        assert math.isfinite(float(lp))


def test_squashed_gaussian_density_round_trip():
    # scoring the sampled action reproduces the sampling-time log-density
    rng = np.random.default_rng(8)
    for _ in range(50):
        mean = rng.normal()
        log_std = rng.uniform(-3.0, 1.0)
        eps = rng.normal()
        h_max = rng.uniform(0.2, 3.0)
        a, lp, _ = squashed_gaussian(mean, log_std, eps, h_max)
        lp2 = squashed_gaussian_log_density(float(a), mean, log_std, h_max)
        assert float(lp2) == pytest.approx(float(lp), rel=1e-9, abs=1e-9)


def test_squashed_gaussian_density_integrates_to_one():
    h_max = 1.5
    actions = np.linspace(-h_max + 1e-6, h_max - 1e-6, 20001)
    dens = np.exp(squashed_gaussian_log_density(actions, 0.4, -0.5, h_max))
    integral = np.trapezoid(dens, actions)
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_squashed_gaussian_gradients_match_finite_differences():
    step = 1e-6
    rng = np.random.default_rng(9)
    for _ in range(20):
        mean = rng.normal()
        log_std = rng.uniform(-2.0, 1.0)
        eps = rng.normal()
        h_max = 1.2
        _, _, cache = squashed_gaussian(mean, log_std, eps, h_max)
        da_dm, da_dls, dlp_dm, dlp_dls = squashed_gaussian_grads(cache, h_max)

        ap, lpp, _ = squashed_gaussian(mean + step, log_std, eps, h_max)
        am, lpm, _ = squashed_gaussian(mean - step, log_std, eps, h_max)
        assert float(da_dm) == pytest.approx(float(ap - am) / (2 * step), rel=1e-6, abs=1e-9)
        assert float(dlp_dm) == pytest.approx(float(lpp - lpm) / (2 * step), rel=1e-6, abs=1e-9)

        ap, lpp, _ = squashed_gaussian(mean, log_std + step, eps, h_max)
        am, lpm, _ = squashed_gaussian(mean, log_std - step, eps, h_max)
        assert float(da_dls) == pytest.approx(float(ap - am) / (2 * step), rel=1e-6, abs=1e-9)
        assert float(dlp_dls) == pytest.approx(float(lpp - lpm) / (2 * step), rel=1e-6, abs=1e-9)


def test_log_std_clamp_zeroes_gradient_outside_range():
    _, _, cache = squashed_gaussian(0.0, LOG_STD_MIN - 5.0, 0.3, 1.0)
    _, da_dls, _, dlp_dls = squashed_gaussian_grads(cache, 1.0)
    assert float(da_dls) == 0.0
    assert float(dlp_dls) == 0.0
    a_low, _, _ = squashed_gaussian(0.0, LOG_STD_MIN - 5.0, 0.3, 1.0)
    a_min, _, _ = squashed_gaussian(0.0, LOG_STD_MIN, 0.3, 1.0)
    assert float(a_low) == float(a_min)
    a_high, lp_high, cache = squashed_gaussian(0.0, LOG_STD_MAX + 3.0, 0.1, 1.0)
    a_max, lp_max, _ = squashed_gaussian(0.0, LOG_STD_MAX, 0.1, 1.0)
    assert (float(a_high), float(lp_high)) == (float(a_max), float(lp_max))
    _, da_dls, _, dlp_dls = squashed_gaussian_grads(cache, 1.0)
    assert float(da_dls) == 0.0
    assert float(dlp_dls) == 0.0


def test_adam_first_step_is_signed_learning_rate():
    blk = ParamBlock("w", np.array([1.0, 2.0]))
    blk.grad[:] = np.array([0.3, -7.0])
    adam_step(blk, lr=0.01)
    np.testing.assert_allclose(blk.values, [0.99, 2.01], rtol=0, atol=1e-9)
    # gradient cleared after the step
    np.testing.assert_array_equal(blk.grad, np.zeros(2))
    assert blk.step_count == 1


def test_adam_zero_gradient_is_a_fixed_point():
    blk = ParamBlock("w", np.array([1.5, -2.5]))
    for _ in range(3):
        adam_step(blk, lr=0.1)
    np.testing.assert_array_equal(blk.values, [1.5, -2.5])


def test_adam_rejects_non_finite_and_names_the_block():
    blk = ParamBlock("critic.h1.W", np.ones(3))
    blk.grad[:] = [1.0, float("nan"), 0.0]
    with pytest.raises(FloatingPointError, match="critic.h1.W"):
        adam_step(blk, lr=0.01)


def test_adam_is_deterministic():
    def run():
        blk = ParamBlock("w", np.linspace(-1, 1, 5))
        for t in range(10):
            blk.grad[:] = np.sin(np.arange(5) + t)
            adam_step(blk, lr=0.01)
        return blk.values.copy()

    np.testing.assert_array_equal(run(), run())


def test_gradient_check_negative_control():
    rng = np.random.default_rng(10)
    d = Dense("d", 3, 2, activation="tanh", rng=rng, dtype=np.float64)
    x = rng.normal(size=(4, 3))
    upstream = rng.normal(size=(4, 2))

    def loss():
        out, _ = d.forward(x)
        return float(np.sum(out * upstream))

    zero_grads(d.blocks)
    d.backward(d.forward(x)[1], upstream)
    d.W.grad *= 1.1  # corrupt the analytic gradient
    report = gradient_check(loss, d.blocks, rng, tolerance=1e-6, step=1e-6)
    assert not report.passed
    assert report.worst_block == "d.W"
    assert isinstance(report, GradCheckReport)
    assert report.n_coordinates == d.W.values.size + d.b.values.size


def test_lstm_backward_fault_injection_breaks_gradient():
    rng = np.random.default_rng(11)
    lstm = LSTM("l", 2, 3, rng=rng, dtype=np.float64)
    xs = rng.normal(size=(1, 3, 2))
    upstream = rng.normal(size=(1, 3, 3))

    def loss():
        hs, _ = lstm.forward(xs)
        return float(np.sum(hs * upstream))

    try:
        inject_fault("lstm-backward")
        zero_grads(lstm.blocks)
        lstm.backward(lstm.forward(xs)[1], upstream)
        report = gradient_check(loss, lstm.blocks, rng, tolerance=1e-6, step=1e-6)
        assert not report.passed
        assert report.worst_block == "l.W"
    finally:
        clear_faults()
    # after clearing, the same pipeline passes again
    zero_grads(lstm.blocks)
    lstm.backward(lstm.forward(xs)[1], upstream)
    report = gradient_check(loss, lstm.blocks, rng, tolerance=1e-6, step=1e-6)
    assert report.passed


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    d = Dense("actor.out", 3, 2, rng=rng, dtype=np.float32)
    d.W.grad[:] = 1.0
    adam_step(d.W, lr=0.01)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, d.blocks, extra={"update_count": np.int64(7)})
    saved, extra = load_checkpoint(path)
    assert int(extra["update_count"]) == 7
    assert set(saved) == {"actor.out.W", "actor.out.b"}
    fresh = Dense("actor.out", 3, 2, rng=np.random.default_rng(99), dtype=np.float32)
    assert not np.array_equal(fresh.W.values, d.W.values)
    load_into(fresh.blocks, saved)
    np.testing.assert_array_equal(fresh.W.values, d.W.values)
    np.testing.assert_array_equal(fresh.W.adam_m, d.W.adam_m)
    np.testing.assert_array_equal(fresh.W.adam_v, d.W.adam_v)
    assert fresh.W.step_count == 1


def test_checkpoint_mismatches_rejected(tmp_path):
    d = Dense("net", 3, 2, dtype=np.float32)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, d.blocks)
    saved, _ = load_checkpoint(path)
    other = Dense("other", 3, 2, dtype=np.float32)
    with pytest.raises(KeyError, match="other.W"):
        load_into(other.blocks, saved)
    wider = Dense("net", 4, 2, dtype=np.float32)
    with pytest.raises(ValueError, match="shape mismatch"):
        load_into(wider.blocks, saved)
    with pytest.raises(ValueError, match="unique"):
        save_checkpoint(path, [d.W, d.W])
