"""Report records, statistical helpers, and the verification suites."""

import io
import math

import numpy as np
import pytest
from scipy.special import ndtr

from dualflow import (
    ModelError,
    RngSpec,
    TestReport,
    ks_test,
    reflection_probabilities,
    suite_duality,
    suite_flow_wiener,
    suite_reversal,
)
from dualflow.core import uniforms
from dualflow.verify import (
    flow_noise_terminal_1d,
    ks_two_sample,
    report_p,
    report_residual,
    summarize_reports,
    window_mass_report,
    write_reports_jsonl,
)


# ---------------------------------------------------------------------------
# report records


def test_report_requires_exactly_one_measure():
    with pytest.raises(ModelError):
        TestReport(name="x", statistic=0.1, p_value=0.5, residual=0.1,
                   threshold=0.01, passed=True, sample_size=10, seeds={})
    with pytest.raises(ModelError):
        TestReport(name="x", statistic=0.1, p_value=None, residual=None,
                   threshold=0.01, passed=True, sample_size=10, seeds={})


def test_report_pass_flag_consistency():
    with pytest.raises(ModelError):
        TestReport(name="x", statistic=0.1, p_value=0.5, residual=None,
                   threshold=0.01, passed=False, sample_size=10, seeds={})
    r = report_p("ok", 0.1, 0.5, 0.01, 10, {"seed": 1})
    assert r.passed
    r2 = report_residual("res", 1.0, 0.02, 0.01, 10, {})
    assert not r2.passed


def test_reports_jsonl_and_summary():
    reports = [report_p("a", 0.1, 0.5, 0.01, 10, {}),
               report_residual("b", 1.0, 0.001, 0.01, 10, {})]
    buf = io.StringIO()
    write_reports_jsonl(buf, reports)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2
    text = summarize_reports(reports)
    assert "2/2" in text


# ---------------------------------------------------------------------------
# statistical helpers


def test_ks_test_uniform_null():
    u = uniforms(RngSpec(91, 0).generator(), (5000,))
    rep = ks_test(u, lambda x: np.clip(x, 0.0, 1.0), name="unif")
    assert rep.passed and rep.p_value > 0.01
    with pytest.raises(ModelError):
        ks_test(u[:10], lambda x: x)
    with pytest.raises(ModelError):
        ks_test(np.zeros(100), lambda x: x)


def test_ks_two_sample_null():
    gen = RngSpec(91, 1).generator()
    rep = ks_two_sample(gen.standard_normal(3000), gen.standard_normal(3000))
    assert rep.passed
    with pytest.raises(ModelError):
        ks_two_sample(np.arange(5.0), np.arange(30.0))


def test_reflection_probability_oracle():
    out = reflection_probabilities(1.0, 0.0, -1.0, 1.0, 0.5)
    # Phi(1.5) - Phi(-0.5), fixed reference value
    assert out["p_identity"] == pytest.approx(0.6246552600051549, abs=1e-12)
    assert out["p_identity"] == pytest.approx(float(ndtr(1.5) - ndtr(-0.5)), abs=1e-15)
    with pytest.raises(ModelError):
        reflection_probabilities(1.0, 0.0, 1.0, -1.0, 0.5)
    with pytest.raises(ModelError):
        reflection_probabilities(-1.0, 0.0, -1.0, 1.0, 0.5)


def test_flow_noise_terminal_reproducible_and_gaussian():
    a = flow_noise_terminal_1d(0.5, 0.3, 0.0, 1.0, 200, 92, 500)
    b = flow_noise_terminal_1d(0.5, 0.3, 0.0, 1.0, 200, 92, 500)
    assert np.array_equal(a, b)
    assert a.shape == (500,)
    rep = ks_test(a, lambda v: ndtr(np.asarray(v)), threshold=1e-3)
    assert rep.passed


# ---------------------------------------------------------------------------
# suites (reduced sizes; the full-size runs live in the acceptance module)


def test_suite_duality_passes_small():
    reports = suite_duality(seed=93, paths=3000)
    assert all(r.passed for r in reports), summarize_reports(reports)


def test_suite_flow_wiener_passes_small():
    reports = suite_flow_wiener(seed=94, replicas=1500)
    assert all(r.passed for r in reports), summarize_reports(reports)


def test_suite_reversal_passes_small():
    reports = suite_reversal(seed=95, paths=6000)
    assert all(r.passed for r in reports), summarize_reports(reports)


def test_reversal_constant_mass_can_fail():
    # the window weights of suite_reversal at seed 0 pass; 5% too large fails
    mu, a, paths = 0.3, 2.0, 20000
    gen = RngSpec(0, 11).generator()
    x0 = (2.0 * a) * uniforms(gen, (paths,)) - a
    weight = (2.0 * a) * np.exp(-2.0 * mu * x0)
    assert window_mass_report(weight, mu, a, 0).passed
    assert not window_mass_report(1.05 * weight, mu, a, 0).passed
    names = [r.name for r in suite_reversal(seed=0, paths=2000)]
    assert "reversal_constant_mass" in names and "reversal_constant_exact" not in names
