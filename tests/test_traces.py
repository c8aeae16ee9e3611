import numpy as np
import pytest

from saclab.traces import (
    CONSERVATIVE_KINDS,
    TraceKind,
    TraceSpec,
    is_conservative,
    mixed_target_density,
    retrace_target,
    soft_td_error,
    trace_coefficient,
    trace_coefficient_from_log,
)

ALL_KINDS = list(TraceKind)


def test_coefficient_formulas():
    assert trace_coefficient(TraceKind.RETRACE, 0.6, 0.3, 0.9) == 1.0
    assert trace_coefficient(TraceKind.RETRACE, 0.3, 0.6, 0.9) == 0.5
    assert trace_coefficient(TraceKind.IMPORTANCE_SAMPLING, 0.3, 0.6, 0.9) == 0.5
    assert trace_coefficient(TraceKind.IMPORTANCE_SAMPLING, 0.9, 0.3, 0.9) == pytest.approx(3.0)
    assert trace_coefficient(TraceKind.TREE_BACKUP, 0.25, 0.7, 0.9) == 0.25
    # continuous densities can exceed 1; the probability interpretation clamps
    assert trace_coefficient(TraceKind.TREE_BACKUP, 1.7, 0.7, 0.9) == 1.0
    assert trace_coefficient(TraceKind.PENG_Q, 0.2, 0.9, 0.9) == 1.0
    assert trace_coefficient(TraceKind.UNCORRECTED, 0.2, 0.9, 0.9) == 1.0


def test_coefficient_rejects_zero_behavior_density():
    with pytest.raises(ValueError, match="behavior"):
        trace_coefficient(TraceKind.RETRACE, 0.5, 0.0, 0.9)


def test_coefficient_array_and_log_forms_agree():
    rng = np.random.default_rng(0)
    pi = rng.uniform(1e-4, 2.0, 500)
    mu = rng.uniform(1e-4, 2.0, 500)
    for kind in ALL_KINDS:
        direct = trace_coefficient(kind, pi, mu, 0.7)
        via_log = trace_coefficient_from_log(kind, np.log(pi), np.log(mu), 0.7)
        np.testing.assert_allclose(via_log, direct, rtol=1e-12)


def test_log_form_is_overflow_safe():
    # log ratio of 800 would overflow exp; the clamped kinds must still work
    c = trace_coefficient_from_log(TraceKind.RETRACE, np.array([400.0]), np.array([-400.0]), 0.5)
    assert c[0] == 1.0
    c = trace_coefficient_from_log(TraceKind.TREE_BACKUP, np.array([300.0]), np.array([0.0]), 0.5)
    assert c[0] == 1.0


def test_retrace_and_is_agree_when_pi_below_mu():
    rng = np.random.default_rng(1)
    mu = rng.uniform(0.2, 1.0, 300)
    pi = mu * rng.uniform(0.0, 1.0, 300)
    np.testing.assert_array_equal(
        trace_coefficient(TraceKind.RETRACE, pi, mu, 0.5),
        trace_coefficient(TraceKind.IMPORTANCE_SAMPLING, pi, mu, 0.5),
    )


def test_mixed_target_density():
    assert mixed_target_density(0.3, 0.5, 0.9) == pytest.approx(0.3 * 0.5 + 0.7 * 0.9)
    assert mixed_target_density(1.0, 0.5, 0.9) == 0.5
    assert mixed_target_density(0.0, 0.5, 0.9) == 0.9


def test_soft_td_error_value():
    # 1 + 0.9 * (2 - 0.1 * (-0.5)) - 1.5 = 1.345
    assert soft_td_error(1.0, 2.0, -0.5, 1.5, 0.9, 0.1) == pytest.approx(1.345, abs=1e-12)
    # zero entropy weight reduces to the plain td error
    assert soft_td_error(1.0, 2.0, -0.5, 1.5, 0.9, 0.0) == pytest.approx(1.3, abs=1e-12)


def _target(deltas, coeffs, q0, spec) -> float:
    """One segment through the batched kernel."""
    row = np.asarray(deltas, dtype=np.float64)[None, :]
    return float(retrace_target(np.array([q0]), row, np.asarray(coeffs, dtype=np.float64)[None, :],
                                np.array([row.shape[1]]), spec)[0])


def _loop_targets(q_start, td_errors, coeffs, lengths, spec) -> np.ndarray:
    """Plain-loop reference for the batched kernel."""
    out = []
    for q0, delta, c, k in zip(q_start, td_errors, coeffs, lengths):
        total, weight = q0, 1.0
        for j in range(min(spec.n, k - 1) + 1):
            if j > 0:
                weight *= c[j]
            total += weight * (spec.gamma * spec.lam) ** j * delta[j]
        out.append(total)
    return np.array(out)


def test_retrace_target_three_step_value():
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.5, n=2, gamma=0.9)
    # 1 + 0.5 + 0.45*0.8*(-0.2) + 0.2025*0.48*0.3
    assert _target([0.5, -0.2, 0.3], [1.0, 0.8, 0.6], 1.0, spec) == pytest.approx(1.45716, abs=1e-12)


def test_retrace_target_truncates_at_horizon():
    deltas, coeffs = [0.5, -0.2, 0.3], [1.0, 0.8, 0.6]
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.5, n=1, gamma=0.9)
    assert _target(deltas, coeffs, 1.0, spec) == pytest.approx(1.0 + 0.5 + 0.45 * 0.8 * (-0.2), abs=1e-12)
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.5, n=0, gamma=0.9)
    assert _target(deltas, coeffs, 1.0, spec) == pytest.approx(1.5, abs=1e-12)


def test_lambda_zero_reduces_to_single_step_for_every_kind():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        deltas = rng.normal(0, 1, k)
        coeffs = np.concatenate([[1.0], rng.uniform(0, 2, k - 1)])
        q0 = float(rng.normal())
        for kind in ALL_KINDS:
            spec = TraceSpec(kind=kind, lam=0.0, n=k - 1, gamma=0.95)
            worst = max(worst, abs(_target(deltas, coeffs, q0, spec) - (q0 + deltas[0])))
    assert worst < 1e-12


def test_retrace_target_linear_in_td_errors():
    rng = np.random.default_rng(3)
    spec = TraceSpec(kind=TraceKind.RETRACE, lam=0.8, n=4, gamma=0.9)
    coeffs = np.concatenate([[1.0], rng.uniform(0, 1.5, 4)])
    da = rng.normal(0, 1, 5)
    db = rng.normal(0, 1, 5)
    t_a = _target(da, coeffs, 0.0, spec)
    t_b = _target(db, coeffs, 0.0, spec)
    t_ab = _target(da + db, coeffs, 0.0, spec)
    assert t_ab == pytest.approx(t_a + t_b, abs=1e-12)


def test_batched_kernel_matches_plain_loop():
    rng = np.random.default_rng(4)
    for _ in range(50):
        batch, k = int(rng.integers(1, 20)), int(rng.integers(2, 12))
        lengths = rng.integers(1, k + 1, batch)
        q0 = rng.normal(0, 1, batch)
        deltas = rng.normal(0, 1, (batch, k))
        coeffs = rng.uniform(0, 3, (batch, k))
        for kind in ALL_KINDS:
            spec = TraceSpec(kind=kind, lam=float(rng.uniform()), n=int(rng.integers(0, k - 1)),
                             gamma=0.95)
            np.testing.assert_allclose(retrace_target(q0, deltas, coeffs, lengths, spec),
                                       _loop_targets(q0, deltas, coeffs, lengths, spec),
                                       rtol=1e-12, atol=1e-12)


def test_entries_past_the_segment_never_reach_the_target():
    spec = TraceSpec(kind=TraceKind.IMPORTANCE_SAMPLING, lam=0.5, n=3, gamma=0.9)
    deltas = np.array([[0.5, -0.2, np.nan, np.inf]])
    coeffs = np.array([[np.nan, 0.8, np.inf, np.inf]])
    got = retrace_target(np.array([1.0]), deltas, coeffs, np.array([2]), spec)
    assert got[0] == pytest.approx(1.0 + 0.5 + 0.45 * 0.8 * (-0.2), abs=1e-12)


def test_conservative_classification():
    rng = np.random.default_rng(4)
    pi = rng.uniform(1e-6, 1.0, 2000)
    mu = rng.uniform(1e-6, 1.0, 2000)
    for kind in (TraceKind.RETRACE, TraceKind.IMPORTANCE_SAMPLING, TraceKind.TREE_BACKUP):
        assert kind in CONSERVATIVE_KINDS
        assert bool(np.all(is_conservative(kind, pi, mu, 0.9)))
    # c = 1 exceeds the density ratio whenever pi < mu
    assert not is_conservative(TraceKind.UNCORRECTED, 0.3, 0.6, 0.9)
    assert not is_conservative(TraceKind.PENG_Q, 0.3, 0.6, 0.9)
    assert TraceKind.UNCORRECTED not in CONSERVATIVE_KINDS
    assert TraceKind.PENG_Q not in CONSERVATIVE_KINDS
    # a zero coefficient sits on the allowed boundary
    assert is_conservative(TraceKind.IMPORTANCE_SAMPLING, 0.0, 0.5, 0.9)
    assert is_conservative(TraceKind.TREE_BACKUP, 0.0, 0.5, 0.9)


def test_trace_spec_validation():
    good = dict(kind=TraceKind.RETRACE, lam=0.5, n=3, gamma=0.9, alpha_ent=0.1)
    TraceSpec(**good)
    with pytest.raises(ValueError):
        TraceSpec(**{**good, "lam": 1.5})
    with pytest.raises(ValueError):
        TraceSpec(**{**good, "lam": -0.1})
    with pytest.raises(ValueError):
        TraceSpec(**{**good, "gamma": 1.0})
    with pytest.raises(ValueError):
        TraceSpec(**{**good, "n": -1})
    with pytest.raises(ValueError):
        TraceSpec(**{**good, "alpha_ent": -0.5})
