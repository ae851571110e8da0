import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from regsel import (
    DesignMatrix,
    adjusted_r_squared,
    aic_full_value,
    coefficient_table,
    fit_ols,
    fit_statistics,
    format_summary,
    predict,
    refit_log_response,
)
from regsel.ols import _format_p
from regsel.report import write_summary
from oracles import random_design


@pytest.fixture
def hand_design():
    # x = (0, 1, 2), y = (0, 1, 1): normal equations give beta = (1/6, 1/2),
    # RSS = 1/6, hat diagonal (5/6, 1/3, 5/6)
    return DesignMatrix.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], names=["x"])


def test_exact_interpolation():
    d = DesignMatrix.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], names=["x"])
    m = fit_ols(d)
    np.testing.assert_allclose(m.coef, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(m.residuals, 0.0, atol=1e-12)
    assert m.rss < 1e-24


def test_hand_solved_fit(hand_design):
    m = fit_ols(hand_design)
    np.testing.assert_allclose(m.coef, [1 / 6, 1 / 2], atol=1e-12)
    assert abs(m.rss - 1 / 6) < 1e-12
    np.testing.assert_allclose(m.leverage, [5 / 6, 1 / 3, 5 / 6], atol=1e-12)
    assert m.rank == 2


def test_duplicated_column_is_aliased():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20)
    y = 1.0 + 2.0 * x + rng.standard_normal(20)
    dup = DesignMatrix.from_arrays(np.column_stack([x, x]), y, names=["a", "b"])
    single = DesignMatrix.from_arrays(x, y, names=["a"])
    m_dup, m_single = fit_ols(dup), fit_ols(single)
    assert m_dup.rank == dup.n_cols - 1
    assert int(m_dup.aliased.sum()) == 1
    assert np.isnan(m_dup.coef[m_dup.aliased]).all()
    np.testing.assert_allclose(m_dup.fitted, m_single.fitted, atol=1e-10)


def test_qr_block_inverse_gram_matches_inverse():
    from regsel.ols import qr_block
    rng = np.random.default_rng(24)
    X = rng.standard_normal((30, 5)) * np.array([1.0, 100.0, 0.01, 3.0, 1.0])
    qr = qr_block(X)
    assert qr.rank == 5
    np.testing.assert_allclose(X[:, qr.pivot], qr.q @ qr.r, atol=1e-10)
    w = qr.inverse_gram_rows()
    np.testing.assert_allclose(w @ w.T, np.linalg.inv(X.T @ X), rtol=1e-9)
    Xa = np.column_stack([X, X[:, 1] + X[:, 3]])
    aliased = qr_block(Xa)
    assert aliased.rank == 5 and aliased.n_cols == 6
    w = aliased.inverse_gram_rows()
    assert w.shape == (6, 5) and not w[aliased.pivot[5:]].any()
    kept = np.sort(aliased.pivot[:5])
    np.testing.assert_allclose(w[kept] @ w[kept].T, np.linalg.inv(Xa[:, kept].T @ Xa[:, kept]),
                               rtol=1e-9)


def test_block_qr_insert_and_delete_keep_a_factorization_of_their_columns():
    """Random inserts and deletes from a qr_block factorization, whole
    multi-column blocks and columns apart in pivot order included: after each,
    Q is orthonormal, QR reproduces the factored columns, pivot lists every
    column once, solve agrees with lstsq, and W is zero off the factored rows."""
    from regsel.ols import qr_block
    rng = np.random.default_rng(25)
    n, p = 60, 12
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p)
    y = rng.standard_normal(n)
    qr = qr_block(X)
    sizes = []
    for _ in range(60):
        kept = qr.pivot[:qr.rank]
        out = qr.pivot[qr.rank:]
        if out.size and (qr.rank <= 3 or rng.random() < 0.5):
            columns = rng.choice(out, size=min(out.size, rng.integers(1, 4)), replace=False)
            qr = qr.insert(X, columns.tolist())
        else:
            columns = rng.choice(kept, size=rng.integers(1, 4), replace=False)
            qr = qr.delete(columns.tolist())
        sizes.append(len(columns))
        kept = qr.pivot[:qr.rank]
        assert sorted(qr.pivot.tolist()) == list(range(p))
        q, r, X_S = qr.q, qr.r, X[:, kept]
        assert q.shape == (n, qr.rank) and r.shape == (qr.rank, qr.rank)
        assert np.linalg.norm(q.T @ q - np.eye(qr.rank)) <= 1e-13     # Frobenius norms
        assert np.linalg.norm(q @ r - X_S) <= 1e-13 * np.linalg.norm(X_S)
        coef, aliased = qr.solve(y)
        np.testing.assert_allclose(coef[kept], np.linalg.lstsq(X_S, y, rcond=None)[0],
                                   rtol=1e-10, atol=1e-10)
        assert not coef[aliased].any() and set(np.flatnonzero(~aliased)) == set(kept)
        assert not qr.inverse_gram_rows()[qr.pivot[qr.rank:]].any()
    assert max(sizes) > 1


def test_predict_in_sample_identity(hand_design):
    m = fit_ols(hand_design)
    assert np.array_equal(predict(m, hand_design), m.fitted)


def test_predict_new_point(hand_design):
    m = fit_ols(hand_design)
    new = DesignMatrix.from_arrays([4.0], [0.0], names=["x"])
    np.testing.assert_allclose(predict(m, new), [13 / 6], atol=1e-12)


def test_predict_term_mismatch(hand_design):
    m = fit_ols(hand_design)
    other = DesignMatrix.from_arrays([4.0], [0.0], names=["z"])
    with pytest.raises(ValueError, match="missing terms"):
        predict(m, other)


def test_all_zero_column_is_aliased():
    d = DesignMatrix.from_arrays(np.column_stack([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
                                 [1.0, 2.0, 3.0], names=["x", "z"])
    m = fit_ols(d)
    assert m.aliased[2]


# ---------------------------------------------------------------------------
# fit statistics
# ---------------------------------------------------------------------------


def _square_model():
    """Two rows, two columns: no residual degree of freedom."""
    return fit_ols(DesignMatrix.from_arrays([0.0, 1.0], [1.0, 3.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: _square_model().sigma2, "residual variance undefined: no residual degrees of freedom"),
    (lambda: coefficient_table(_square_model()),
     "residual variance undefined: no residual degrees of freedom"),
    (lambda: adjusted_r_squared(0.5, 3, 3), "adjusted R-squared undefined: n <= rank"),
    (lambda: predict(fit_ols(DesignMatrix.from_arrays(np.eye(4)[:, :2], np.arange(4.0), names=["a", "b"])),
                     DesignMatrix.from_arrays(np.eye(4)[:, :2], np.arange(4.0), names=["b", "a"])),
     "new design terms do not align with the model's design"),
], ids=["sigma2", "coefficient-table", "adjusted-r-squared", "predict-term-order"])
def test_ols_errors(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_adjusted_r_squared_identity():
    assert abs(adjusted_r_squared(0.2827, 1276, 67) - 0.2435) < 1e-4


def test_aic_full_convention():
    rss = 442.2 ** 2 * 1209
    assert abs(aic_full_value(rss, 1276, 67) - 19234.33) < 1.0


def test_aic_variants_differ_by_constant():
    rng = np.random.default_rng(1)
    for _ in range(5):
        d = random_design(rng, 40, 4)
        m = fit_ols(d)
        s = fit_statistics(m, k=2.0)
        expected = m.n * math.log(2 * math.pi) + m.n + 2
        assert abs((s.aic_full - s.aic_selection) - expected) < 1e-9


def test_aic_variants_share_argmin():
    rng = np.random.default_rng(2)
    d = random_design(rng, 60, 5)
    subsets = [(), ("x1",), ("x1", "x2"), ("x1", "x2", "x3"), d.term_names]
    stats = [fit_statistics(fit_ols(d.subset_terms(s))) for s in subsets]
    full = np.argmin([s.aic_full for s in stats])
    sel = np.argmin([s.aic_selection for s in stats])
    assert full == sel


def test_perfect_fit_aic_error():
    d = DesignMatrix.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], names=["x"])
    with pytest.raises(ValueError, match="AIC undefined"):
        fit_statistics(fit_ols(d))


def test_fit_statistics_of_a_constant_response_raises():
    X = np.random.default_rng(4).standard_normal((30, 2))
    m = fit_ols(DesignMatrix.from_arrays(X, np.full(30, 5.0)))
    with pytest.raises(ValueError, match="fit statistics undefined: the response is constant"):
        fit_statistics(m)


def test_a_constant_response_whose_tss_rounds_above_zero_raises():
    y = np.full(7, 0.1)
    assert float(np.sum((y - y.mean()) ** 2)) > 0.0
    m = fit_ols(DesignMatrix.from_arrays(np.arange(7.0), y, names=["x"]))
    with pytest.raises(ValueError, match="fit statistics undefined: the response is constant"):
        fit_statistics(m)


def test_intercept_only_r_squared_is_exactly_zero():
    rng = np.random.default_rng(3)
    d = random_design(rng, 25, 3)
    m = fit_ols(d.subset_terms([]))
    s = fit_statistics(m)
    assert s.r_squared == 0.0
    assert s.adj_r_squared == 0.0


def test_sigma_hat():
    rng = np.random.default_rng(4)
    d = random_design(rng, 30, 3)
    m = fit_ols(d)
    s = fit_statistics(m)
    assert abs(s.sigma_hat - math.sqrt(m.rss / (30 - 4))) < 1e-12


# ---------------------------------------------------------------------------
# log-response refits
# ---------------------------------------------------------------------------


def test_log_refit_constant_response():
    d = DesignMatrix.from_arrays([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], names=["x"])
    m = refit_log_response(fit_ols(d.subset_terms([])))
    assert m.transform == "log"
    assert abs(m.coef[0] - math.log(5.0)) < 1e-12
    np.testing.assert_allclose(m.residuals, 0.0, atol=1e-12)


def test_log_refit_rejects_nonpositive():
    d = DesignMatrix.from_arrays([1.0, 2.0, 3.0], [5.0, 0.0, 5.0], names=["x"])
    with pytest.raises(ValueError, match="row 2"):
        refit_log_response(fit_ols(d))


def test_log_refit_improves_multiplicative_data():
    rng = np.random.default_rng(5)
    n = 200
    x = rng.standard_normal(n)
    y = np.exp(0.2 + 0.5 * x + 0.4 * rng.standard_normal(n))
    d = DesignMatrix.from_arrays(x, y, names=["x"])
    identity = fit_ols(d)
    logged = refit_log_response(identity)
    # on multiplicative data the log scale is the true model
    assert logged.rss / (n - logged.rank) < identity.rss / (n - identity.rank)


def _positive_design(rng, aliased: bool) -> DesignMatrix:
    X = rng.standard_normal((40, 3))
    if aliased:
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = np.exp(0.5 + 0.3 * X[:, 0] - 0.2 * X[:, 2] + 0.2 * rng.standard_normal(40))
    return DesignMatrix.from_arrays(X, y)


@pytest.mark.parametrize("aliased", [False, True])
def test_log_refit_equals_fit_on_log_design(aliased):
    d = _positive_design(np.random.default_rng(9), aliased)
    m = fit_ols(d)
    logged = refit_log_response(m)
    direct = fit_ols(replace(d, y=np.log(d.y)))
    assert logged.transform == "log" and direct.transform == "identity"
    assert logged.rank == direct.rank == d.n_cols - int(aliased)
    assert logged.rss == direct.rss
    for name in ("coef", "aliased", "fitted", "residuals", "leverage"):
        np.testing.assert_array_equal(getattr(logged, name), getattr(direct, name))
    assert logged.qr is m.qr


@pytest.mark.parametrize("aliased", [False, True])
def test_fit_keeps_its_factorization(aliased):
    d = _positive_design(np.random.default_rng(10), aliased)
    m = fit_ols(d)
    qr = m.qr
    assert qr.rank == m.rank and qr.n_cols == d.n_cols
    np.testing.assert_allclose(d.X[:, qr.pivot[:qr.rank]], qr.q @ qr.r, atol=1e-12)
    assert set(qr.pivot[qr.rank:]) == set(np.flatnonzero(m.aliased))
    np.testing.assert_array_equal(m.leverage, np.einsum("ij,ij->i", qr.q, qr.q))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_residual_orthogonality_and_trace():
    rng = np.random.default_rng(6)
    for n, p in ((30, 4), (60, 10), (15, 6)):
        d = random_design(rng, n, p)
        m = fit_ols(d)
        non_aliased = d.X[:, ~m.aliased]
        assert np.abs(non_aliased.T @ m.residuals).max() < 1e-8 * np.linalg.norm(d.y)
        assert abs(m.leverage.sum() - m.rank) < 1e-10 * m.rank


def test_trace_with_aliased_columns():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(25)
    X = np.column_stack([x, 2.0 * x, rng.standard_normal(25)])
    d = DesignMatrix.from_arrays(X, rng.standard_normal(25))
    m = fit_ols(d)
    assert m.rank == 3          # intercept + x + one independent column
    assert abs(m.leverage.sum() - m.rank) < 1e-10 * m.rank


def test_row_permutation_invariance():
    rng = np.random.default_rng(8)
    d = random_design(rng, 40, 5)
    perm = rng.permutation(40)
    m = fit_ols(d)
    mp = fit_ols(d.take_rows(perm))
    np.testing.assert_allclose(mp.coef, m.coef, rtol=1e-9)
    assert abs(mp.rss - m.rss) < 1e-9 * m.rss
    assert mp.rank == m.rank
    np.testing.assert_allclose(mp.residuals, m.residuals[perm], atol=1e-9)
    np.testing.assert_allclose(mp.leverage, m.leverage[perm], atol=1e-10)


# ---------------------------------------------------------------------------
# coefficient table
# ---------------------------------------------------------------------------


def test_coefficient_table_against_normal_equations():
    rng = np.random.default_rng(9)
    d = random_design(rng, 50, 3)
    m = fit_ols(d)
    rows = coefficient_table(m)
    cov = np.linalg.inv(d.X.T @ d.X) * m.sigma2
    for j, (name, est, se, t, p) in enumerate(rows):
        assert name == d.column_names[j]
        assert abs(est - m.coef[j]) < 1e-12
        assert abs(se - math.sqrt(cov[j, j])) < 1e-8 * se
        assert abs(t - est / se) < 1e-8 * abs(t)
        assert 0.0 <= p <= 1.0


def test_coefficient_table_marks_aliased():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(20)
    d = DesignMatrix.from_arrays(np.column_stack([x, x]), rng.standard_normal(20),
                                 names=["a", "b"])
    rows = coefficient_table(fit_ols(d))
    assert sum(1 for r in rows if math.isnan(r[1])) == 1


def test_format_summary_layout():
    rng = np.random.default_rng(11)
    d = random_design(rng, 40, 2)
    text = format_summary(fit_ols(d))
    assert "Coefficients:" in text
    assert "(Intercept)" in text
    assert "Residual standard error:" in text
    assert "Adjusted R-squared:" in text
    assert "F-statistic:" in text


def test_format_summary_marks_a_p_value_below_0_01_with_two_stars():
    m = fit_ols(DesignMatrix.from_arrays(np.arange(8.0), [0.0, 1, 1, 2, 1, 3, 2, 3], names=["x"]))
    assert 0.001 <= coefficient_table(m)[1][4] < 0.01
    assert format_summary(m).splitlines()[5].endswith(" 0.00719228 **")


def test_summaries_of_an_aliased_log_refit(tmp_path):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((12, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = np.exp(0.5 + 0.3 * X[:, 0] + 0.1 * rng.standard_normal(12))
    m = refit_log_response(fit_ols(DesignMatrix.from_arrays(X, y)))
    assert m.aliased.tolist() == [False, False, True, False]
    lines = format_summary(m).splitlines()
    assert lines[0] == "Formula: log(y) ~ x1 + x2 + x3"
    assert lines[6] == "x2                     NA            NA        NA          NA  (aliased)"
    write_summary(m, tmp_path / "m.txt", tmp_path / "m.tsv")
    assert (tmp_path / "m.txt").read_text().splitlines() == lines
    assert (tmp_path / "m.tsv").read_text().splitlines()[3] == "x2\tNA\tNA\tNA\tNA\t1"


# ---------------------------------------------------------------------------
# p-values from scipy.special, equal to scipy.stats
# ---------------------------------------------------------------------------


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, regsel, regsel.cli; print('scipy.stats' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("n, p, scale", [(8, 2, 1.0), (50, 3, 0.2), (400, 5, 0.02), (30, 4, 5.0)])
def test_coefficient_p_values_equal_scipy_stats(n, p, scale):
    rng = np.random.default_rng(n + p)
    X = rng.standard_normal((n, p))
    y = X @ rng.uniform(-1.0, 1.0, p) + scale * rng.standard_normal(n)
    m = fit_ols(DesignMatrix.from_arrays(X, y))
    for _, _, _, t, pval in coefficient_table(m):
        assert pval == 2.0 * float(stats.t.sf(abs(t), m.n - m.rank))


def _f_line(m):
    r = m.rank
    tss = float(np.sum((m.design.y - m.design.y.mean()) ** 2))
    f_val = ((tss - m.rss) / (r - 1)) / m.sigma2
    want = _format_p(float(stats.f.sf(f_val, r - 1, m.n - r)))
    return f"F-statistic: {f_val:.4g} on {r - 1} and {m.n - r} DF, p-value: {want}"


@pytest.mark.parametrize("n, p, scale", [(9, 2, 3.0), (60, 3, 1.0), (500, 4, 0.1)])
def test_format_summary_f_p_value_equals_scipy_stats(n, p, scale):
    rng = np.random.default_rng(n * p)
    X = rng.standard_normal((n, p))
    y = 0.3 * X.sum(axis=1) + scale * rng.standard_normal(n)
    m = fit_ols(DesignMatrix.from_arrays(X, y))
    assert _f_line(m) in format_summary(m).splitlines()


def test_format_summary_f_p_value_when_tss_minus_rss_rounds_negative():
    # x orthogonal to the centered response: tss - rss is zero and rounds
    # to -1.8e-15 here, where the F survival function is still 1
    rng = np.random.default_rng(3)
    y, x = rng.standard_normal(8), rng.standard_normal(8)
    yc, xc = y - y.mean(), x - x.mean()
    m = fit_ols(DesignMatrix.from_arrays(xc - (xc @ yc) / (yc @ yc) * yc, y))
    assert float(np.sum((y - y.mean()) ** 2)) - m.rss < 0.0
    line = _f_line(m)
    assert line.endswith("p-value: 1") and line in format_summary(m).splitlines()
