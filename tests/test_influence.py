import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from regsel import (
    DesignMatrix,
    RawTable,
    added_variable_data,
    cooks_distance,
    dffits,
    encode_design,
    fit_ols,
    influence_flags,
    interpolated_quantile,
    press_residuals,
    refit_log_response,
    studentized,
    vif,
    vif_prune,
)
from oracles import (added_variable_by_regression, aux_regression_vif, loo_cooks, loo_dffits,
                     loo_predictions, prune_by_auxiliary_regression, random_design)


@pytest.fixture
def hand_model():
    d = DesignMatrix.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], names=["x"])
    return fit_ols(d)


def centered_orthonormal(rng, n, k):
    """k mean-zero orthonormal columns (span of centered random columns)."""
    Z = rng.standard_normal((n, k))
    Z -= Z.mean(axis=0)
    Q, _ = np.linalg.qr(Z)
    return Q[:, :k]


# ---------------------------------------------------------------------------
# PRESS
# ---------------------------------------------------------------------------


def test_press_hand_values(hand_model):
    np.testing.assert_allclose(press_residuals(hand_model), [-1.0, 0.5, -1.0], atol=1e-12)


def test_press_zero_residual_model():
    d = DesignMatrix.from_arrays([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0], names=["x"])
    np.testing.assert_allclose(press_residuals(fit_ols(d)), 0.0, atol=1e-12)


def test_press_matches_loo_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = random_design(rng, 60, 6)
        m = fit_ols(d)
        loo_err = d.y - loo_predictions(d)
        assert np.abs(press_residuals(m) - loo_err).max() < 1e-8


def test_press_identity_with_residuals():
    rng = np.random.default_rng(22)
    d = random_design(rng, 30, 4)
    m = fit_ols(d)
    np.testing.assert_allclose(press_residuals(m) * (1.0 - m.leverage), m.residuals,
                               rtol=1e-12, atol=1e-14)


def test_press_leverage_one_error():
    d = DesignMatrix.from_arrays([0.0, 1.0], [3.0, 4.0], names=["x"])
    with pytest.raises(ValueError, match="leverage 1"):
        press_residuals(fit_ols(d))


# ---------------------------------------------------------------------------
# Cook's distance
# ---------------------------------------------------------------------------


def test_cooks_hand_values(hand_model):
    np.testing.assert_allclose(cooks_distance(hand_model), [2.5, 0.25, 2.5], atol=1e-12)


def test_cooks_zero_residual_rows():
    rng = np.random.default_rng(23)
    x = np.arange(10.0)
    y = 2.0 + 3.0 * x
    y[4] += 1.5                       # single perturbed row
    m = fit_ols(DesignMatrix.from_arrays(x, y, names=["x"]))
    d = cooks_distance(m)
    zero_rows = np.abs(m.residuals) < 1e-10
    assert np.all(d[zero_rows] < 1e-18)


def test_cooks_matches_refit_oracle():
    rng = np.random.default_rng(24)
    for _ in range(3):
        d = random_design(rng, 40, 4)
        m = fit_ols(d)
        assert np.abs(cooks_distance(m) - loo_cooks(d)).max() < 1e-8


def test_cooks_scale_invariance():
    rng = np.random.default_rng(25)
    d = random_design(rng, 30, 3)
    base = cooks_distance(fit_ols(d))
    for c in (2.0, -5.0, 0.01):
        scaled = DesignMatrix.from_arrays(d.X[:, 1:], c * d.y, names=[t.name for t in d.terms])
        np.testing.assert_allclose(cooks_distance(fit_ols(scaled)), base, rtol=1e-10)


# ---------------------------------------------------------------------------
# DFFITS and studentized residuals
# ---------------------------------------------------------------------------


def test_dffits_matches_refit_oracle():
    rng = np.random.default_rng(26)
    d = random_design(rng, 50, 5)
    m = fit_ols(d)
    assert np.abs(dffits(m) - loo_dffits(d)).max() < 1e-8


def test_dffits_zero_residual_row():
    x = np.arange(8.0)
    y = 1.0 + 2.0 * x
    y[2] += 1.0
    m = fit_ols(DesignMatrix.from_arrays(x, y, names=["x"]))
    zero_rows = np.abs(m.residuals) < 1e-10
    assert np.all(np.abs(dffits(m)[zero_rows]) < 1e-9)


def test_dffits_degrees_of_freedom_guard(hand_model):
    with pytest.raises(ValueError) as excinfo:
        dffits(hand_model)
    assert str(excinfo.value) == "external studentized residuals require n > rank + 1"


def test_studentized_zero_residual():
    x = np.arange(8.0)
    y = 1.0 + 2.0 * x
    y[2] += 1.0
    m = fit_ols(DesignMatrix.from_arrays(x, y, names=["x"]))
    zero_rows = np.abs(m.residuals) < 1e-12
    assert np.all(np.abs(studentized(m, "internal")[zero_rows]) < 1e-10)
    assert np.all(np.abs(studentized(m, "external")[zero_rows]) < 1e-10)


def test_studentized_internal_external_identity():
    rng = np.random.default_rng(27)
    d = random_design(rng, 30, 4)
    m = fit_ols(d)
    n, r = m.n, m.rank
    internal = studentized(m, "internal")
    external = studentized(m, "external")
    expected = internal * np.sqrt((n - r - 1) / (n - r - internal ** 2))
    np.testing.assert_allclose(external, expected, rtol=1e-10)


def test_studentized_internal_rss_identity():
    rng = np.random.default_rng(28)
    d = random_design(rng, 30, 4)
    m = fit_ols(d)
    internal = studentized(m, "internal")
    recovered = internal * np.sqrt(m.sigma2 * (1.0 - m.leverage))
    assert abs(float(recovered @ recovered) - m.rss) < 1e-10 * m.rss


def test_studentized_kind_validation(hand_model):
    with pytest.raises(ValueError, match="internal"):
        studentized(hand_model, "sideways")


# ---------------------------------------------------------------------------
# VIF
# ---------------------------------------------------------------------------


def test_vif_orthogonal_columns_are_one():
    rng = np.random.default_rng(29)
    Q = centered_orthonormal(rng, 50, 3)
    d = DesignMatrix.from_arrays(Q, rng.standard_normal(50), names=["a", "b", "c"])
    report = vif(d)
    np.testing.assert_allclose(list(report.values.values()), 1.0, atol=1e-10)


def test_vif_exact_correlation_09():
    rng = np.random.default_rng(30)
    Q = centered_orthonormal(rng, 80, 2)
    rho = 0.9
    x1 = Q[:, 0]
    x2 = rho * Q[:, 0] + math.sqrt(1 - rho ** 2) * Q[:, 1]
    d = DesignMatrix.from_arrays(np.column_stack([x1, x2]), rng.standard_normal(80),
                                 names=["x1", "x2"])
    report = vif(d)
    expected = 1.0 / (1.0 - rho ** 2)             # 5.263157...
    assert abs(report.values["x1"] - expected) < 1e-6
    assert abs(report.values["x2"] - expected) < 1e-6


def test_vif_exact_collinearity_flagged_infinite():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(40)
    d = DesignMatrix.from_arrays(np.column_stack([x, 2.0 * x, rng.standard_normal(40)]),
                                 rng.standard_normal(40), names=["x1", "x2", "x3"])
    report = vif(d)
    assert math.isinf(report.values["x1"]) and math.isinf(report.values["x2"])
    assert set(report.infinite) == {"x1", "x2"}
    assert math.isfinite(report.values["x3"])


def test_vif_matches_auxiliary_regression_oracle():
    rng = np.random.default_rng(32)
    X = rng.standard_normal((60, 5))
    X[:, 2] = 0.7 * X[:, 0] + 0.5 * rng.standard_normal(60)
    d = DesignMatrix.from_arrays(X, rng.standard_normal(60))
    got = vif(d).values
    want = aux_regression_vif(d)
    for name in want:
        assert abs(got[name] - want[name]) < 1e-10 * want[name]


def test_vif_affine_rescaling_invariance():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((50, 4))
    X[:, 1] = 0.8 * X[:, 0] + 0.3 * rng.standard_normal(50)
    y = rng.standard_normal(50)
    base = vif(DesignMatrix.from_arrays(X, y)).values
    scales = np.array([3.0, -0.25, 10.0, 0.5])
    shifts = np.array([1.0, -2.0, 100.0, 0.0])
    rescaled = vif(DesignMatrix.from_arrays(X * scales + shifts, y)).values
    for name in base:
        assert abs(rescaled[name] - base[name]) < 1e-9 * base[name]


def test_vif_numeric_only_excludes_factor_dummies():
    rng = np.random.default_rng(34)
    n = 40
    X = rng.standard_normal((n, 2))
    labels = rng.choice(["a", "b", "c"], size=n)
    base = DesignMatrix.from_arrays(X, rng.standard_normal(n), names=["x1", "x2"])
    from regsel.table import RawTable, encode_design
    t = RawTable.build(["id", "x1", "x2", "f", "y"],
                       ["id", "numeric", "numeric", "factor", "response"],
                       [np.arange(n), X[:, 0], X[:, 1], labels, base.y])
    d = encode_design(t)
    report = vif(d)
    assert set(report.values) == {"x1", "x2"}
    assert report.values == vif(base).values


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_vif_rank_deficient_block(order):
    # x3 = x1 + x2 exactly, in each column order, beside a correlated x4:
    # the three dependent columns are infinite and x4 keeps its VIF given
    # the span of x1..x3
    rng = np.random.default_rng(45)
    n = 50
    x1, x2, noise = rng.standard_normal((3, n))
    dependent = {"x1": x1, "x2": x2, "x3": x1 + x2}
    names = [["x1", "x2", "x3"][k] for k in order] + ["x4"]
    X = np.column_stack([dependent[name] for name in names[:3]] + [0.6 * x1 - 0.3 * x2 + noise])
    d = DesignMatrix.from_arrays(X, rng.standard_normal(n), names=names)
    report = vif(d)
    assert set(report.infinite) == {"x1", "x2", "x3"}
    want = aux_regression_vif(d)
    assert set(name for name, v in want.items() if math.isinf(v)) == {"x1", "x2", "x3"}
    assert abs(report.values["x4"] - want["x4"]) < 1e-10 * want["x4"]


def test_vif_exact_duplicate_pair():
    rng = np.random.default_rng(46)
    n = 40
    X = rng.standard_normal((n, 4))
    X[:, 2] = X[:, 1]
    X[:, 3] += 0.5 * X[:, 0]
    d = DesignMatrix.from_arrays(X, rng.standard_normal(n))
    report = vif(d)
    assert report.infinite == ("x2", "x3")
    want = aux_regression_vif(d)
    for name in ("x1", "x4"):
        assert abs(report.values[name] - want[name]) < 1e-10 * want[name]


def test_vif_of_a_lone_numeric_column_is_one():
    d = DesignMatrix.from_arrays([1.0, 2.0, 4.0], [1.0, 2.0, 3.0], names=["x"])
    assert abs(vif(d).values["x"] - 1.0) < 1e-12
    assert vif_prune(d, vstar=1.5)[1].values == vif(d).values


# ---------------------------------------------------------------------------
# VIF pruning
# ---------------------------------------------------------------------------


def test_vif_prune_identity_when_clean():
    rng = np.random.default_rng(35)
    Q = centered_orthonormal(rng, 60, 4)
    d = DesignMatrix.from_arrays(Q, rng.standard_normal(60))
    pruned, report = vif_prune(d, vstar=10.0)
    assert pruned.term_names == d.term_names
    assert report.trail == ()


def test_vif_prune_removes_one_of_near_duplicate_pair():
    rng = np.random.default_rng(36)
    n = 100
    X = rng.standard_normal((n, 5))
    X[:, 2] = X[:, 1] + 0.05 * rng.standard_normal(n)      # VIF far above 10
    d = DesignMatrix.from_arrays(X, rng.standard_normal(n))
    pruned, report = vif_prune(d, vstar=10.0)
    removed = {name for name, _ in report.trail}
    assert len(removed) == 1 and removed <= {"x2", "x3"}
    assert all(v <= 10.0 for v in report.values.values())
    assert all(v <= 10.0 for v in aux_regression_vif(pruned).values())
    assert all(v > 10.0 for _, v in report.trail)
    assert len(report.trail) <= 5


def test_vif_prune_factor_terms_pass_through():
    rng = np.random.default_rng(37)
    n = 60
    from regsel.table import RawTable, encode_design
    x1 = rng.standard_normal(n)
    x2 = x1 + 0.02 * rng.standard_normal(n)
    t = RawTable.build(["id", "x1", "x2", "f", "y"],
                       ["id", "numeric", "numeric", "factor", "response"],
                       [np.arange(n), x1, x2, rng.choice(["u", "v"], size=n),
                        rng.standard_normal(n)])
    d = encode_design(t)
    pruned, report = vif_prune(d, vstar=10.0)
    assert "f" in pruned.term_names
    assert len([t_ for t_ in pruned.terms if t_.kind == "numeric"]) == 1


def assert_prune_matches_oracles(d, vstar):
    """Trail names and values, and the final values, match a per-pass
    auxiliary-regression loop; each trail value and the final values equal
    the all-exact VIF pass over that pass's survivors bit for bit."""
    pruned, report = vif_prune(d, vstar=vstar)
    trail, values = prune_by_auxiliary_regression(d, vstar)
    assert [name for name, _ in report.trail] == [name for name, _ in trail]
    for (_, got), (_, want) in zip(report.trail, trail):
        assert got == want if math.isinf(want) else math.isclose(got, want, rel_tol=1e-9)
    assert report.values.keys() == values.keys()
    for name, want in values.items():
        assert math.isclose(report.values[name], want, rel_tol=1e-9)
    factors = [t.name for t in d.terms if t.kind == "factor"]
    survivors = [t.name for t in d.terms if t.kind == "numeric"]
    for name, v in report.trail:
        assert vif(d.subset_terms(factors + survivors)).values[name] == v
        survivors.remove(name)
    if len(survivors) > 1:
        assert vif(pruned).values == report.values
    return report


def test_vif_prune_matches_per_pass_oracle():
    rng = np.random.default_rng(38)
    n = 150
    X = rng.standard_normal((n, 10))
    X[:, 1] = X[:, 0] + 0.1 * rng.standard_normal(n)
    X[:, 2] = X[:, 0] - X[:, 3] + 0.2 * rng.standard_normal(n)
    X[:, 6] = 0.5 * X[:, 4] + X[:, 5] + 0.15 * rng.standard_normal(n)
    from regsel.table import RawTable, encode_design
    names = [f"x{j + 1}" for j in range(10)]
    t = RawTable.build(["id", *names, "f", "y"], ["id", *["numeric"] * 10, "factor", "response"],
                       [np.arange(n), *X.T, rng.choice(["u", "v", "w"], size=n), rng.standard_normal(n)])
    d = encode_design(t)
    report = assert_prune_matches_oracles(d, vstar=3.0)
    assert len(report.trail) >= 3


def test_vif_prune_exact_collinearity_is_infinite():
    rng = np.random.default_rng(39)
    X = rng.standard_normal((40, 4))
    X[:, 2] = X[:, 0] + X[:, 1]
    d = DesignMatrix.from_arrays(X, rng.standard_normal(40))
    report = assert_prune_matches_oracles(d, vstar=10.0)
    assert report.trail[0] == ("x1", math.inf)
    assert all(math.isfinite(v) for v in report.values.values())


def test_vif_prune_at_the_threshold():
    rng = np.random.default_rng(40)
    X = rng.standard_normal((80, 3))
    X[:, 1] = X[:, 0] + 0.4 * rng.standard_normal(80)
    d = DesignMatrix.from_arrays(X, rng.standard_normal(80))
    worst_name, worst = max(vif(d).values.items(), key=lambda kv: kv[1])
    report = assert_prune_matches_oracles(d, vstar=worst * (1.0 - 1e-9))
    assert report.trail == ((worst_name, worst),)
    report = assert_prune_matches_oracles(d, vstar=worst * (1.0 + 1e-9))
    assert report.trail == ()


@pytest.mark.parametrize("seed", [1, 2, 7, 9, 10])
def test_vif_prune_two_survivors_remove_the_earlier(seed):
    # two centered columns share one VIF, 1/(1 - r²); the earliest-column
    # tie rule, not rounding, must pick which goes
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(200)
    x2 = x1 + 1e-3 * rng.standard_normal(200)
    d = DesignMatrix.from_arrays(np.column_stack([x1, x2]), rng.standard_normal(200))
    values = vif(d).values
    assert values["x1"] == values["x2"] > 1e5
    report = assert_prune_matches_oracles(d, vstar=10.0)
    assert [name for name, _ in report.trail] == ["x1"]
    assert list(report.values) == ["x2"]


def test_vif_prune_would_remove_everything():
    d = DesignMatrix.from_arrays(np.full(10, 3.0), np.arange(10.0), names=["const"])
    with pytest.raises(ValueError, match="every numeric predictor"):
        vif_prune(d, vstar=10.0)


def test_vif_prune_vstar_validation():
    d = DesignMatrix.from_arrays([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    for vstar in (0.5, math.nan):
        with pytest.raises(ValueError, match=f"vstar must exceed 1, got {vstar}"):
            vif_prune(d, vstar=vstar)


# ---------------------------------------------------------------------------
# influence flags
# ---------------------------------------------------------------------------


def test_flags_no_high_leverage_when_rows_identical():
    d = DesignMatrix.from_arrays([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0], names=["x"])
    report = influence_flags(fit_ols(d), top_m=1)
    assert not report.high_leverage.any()
    np.testing.assert_allclose(report.leverage, report.mean_leverage)


def test_flags_top_m_equals_n_flags_everything():
    rng = np.random.default_rng(38)
    d = random_design(rng, 20, 2)
    report = influence_flags(fit_ols(d), top_m=20)
    assert report.top_influence.all()


def test_flags_hand_model_tie_inclusion(hand_model):
    # Cook's distances (2.5, 0.25, 2.5): the top-1 quantile threshold is 2.5
    # and both tied rows are flagged
    report = influence_flags(hand_model, top_m=1)
    assert report.top_influence.tolist() == [True, False, True]
    assert abs(report.cook_threshold - 2.5) < 1e-12


def test_flags_top_m_validation(hand_model):
    with pytest.raises(ValueError, match="top_m"):
        influence_flags(hand_model, top_m=4)


def _factor_only_design():
    t = RawTable.build(["g", "y"], ["factor", "response"], [["a", "b", "c", "a"], [1.0, 2.0, 4.0, 3.0]])
    return encode_design(t)


@pytest.mark.parametrize("call, message", [
    (lambda m: cooks_distance(fit_ols(DesignMatrix.from_arrays([0.0, 1.0], [1.0, 3.0]))),
     "residual variance undefined: no residual degrees of freedom"),
    (lambda m: studentized(m, "external"), "external studentized residuals require n > rank + 1"),
    (lambda m: vif(_factor_only_design()), "no columns to score: the design has no numeric terms"),
    (lambda m: vif_prune(_factor_only_design()), "design has no numeric predictors to prune"),
    (lambda m: interpolated_quantile([], 0.5), "quantile of an empty vector"),
    (lambda m: interpolated_quantile([1.0, 2.0], 1.5), "probability must be in [0, 1], got 1.5"),
], ids=["cooks-square", "external-studentized", "vif-no-numeric", "prune-no-numeric",
        "quantile-empty", "quantile-probability"])
def test_influence_errors(hand_model, call, message):
    with pytest.raises(ValueError) as excinfo:
        call(hand_model)
    assert str(excinfo.value) == message


def test_interpolated_quantile_matches_numpy():
    rng = np.random.default_rng(39)
    v = rng.standard_normal(37)
    for p in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        assert abs(interpolated_quantile(v, p) - np.quantile(v, p)) < 1e-12


# ---------------------------------------------------------------------------
# added-variable data
# ---------------------------------------------------------------------------


def test_av_single_predictor_reduces_to_centering():
    rng = np.random.default_rng(40)
    x = rng.standard_normal(30)
    y = 2.0 + 1.5 * x + rng.standard_normal(30)
    d = DesignMatrix.from_arrays(x, y, names=["x"])
    m = fit_ols(d)
    av = added_variable_data(m, "x")
    np.testing.assert_allclose(av.x_partial, x - x.mean(), atol=1e-10)
    np.testing.assert_allclose(av.y_partial, y - y.mean(), atol=1e-10)
    assert abs(av.slope - m.coef[1]) < 1e-12


def test_av_slope_equals_full_model_coefficient():
    rng = np.random.default_rng(41)
    d = random_design(rng, 50, 6)
    m = fit_ols(d)
    for j, term in enumerate(d.term_names, start=1):
        av = added_variable_data(m, term)
        assert abs(av.slope - m.coef[j]) < 1e-10


def test_av_on_rank_deficient_model():
    # x3 = x1 + x2 exactly: one of the three is aliased, the other two keep
    # slopes equal to their coefficients
    rng = np.random.default_rng(43)
    X = rng.standard_normal((40, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    y = 1.0 + X[:, 0] - 2.0 * X[:, 1] + rng.standard_normal(40)
    m = fit_ols(DesignMatrix.from_arrays(X, y))
    assert int(m.aliased.sum()) == 1
    for j, term in enumerate(m.design.term_names, start=1):
        if m.aliased[j]:
            with pytest.raises(ValueError, match=f"'{term}' is aliased"):
                added_variable_data(m, term)
        else:
            assert abs(added_variable_data(m, term).slope - m.coef[j]) < 1e-10


def assert_av_matches_regression(m, term):
    av = added_variable_data(m, term)
    x_partial, y_partial, slope = added_variable_by_regression(m, term)
    assert np.abs(av.x_partial - x_partial).max() <= 1e-10 * np.abs(x_partial).max()
    assert np.abs(av.y_partial - y_partial).max() <= 1e-10 * np.abs(y_partial).max()
    assert abs(av.slope - slope) <= 1e-10 * abs(slope)


def test_av_matches_regression_oracle():
    rng = np.random.default_rng(44)
    for p in (1, 3, 6):
        m = fit_ols(random_design(rng, 50, p))
        for term in m.design.term_names:
            assert_av_matches_regression(m, term)
    # x3 = x1 + x2: the other columns are the non-aliased ones
    X = rng.standard_normal((40, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1], rng.standard_normal(40)])
    m = fit_ols(DesignMatrix.from_arrays(X, 1.0 + X @ [1.0, -2.0, 0.0, 0.5] + rng.standard_normal(40)))
    for j, term in enumerate(m.design.term_names, start=1):
        if not m.aliased[j]:
            assert_av_matches_regression(m, term)
    # a log refit reads the same QR against ln(y)
    d = random_design(rng, 60, 4)
    log_model = refit_log_response(fit_ols(replace(d, y=np.exp(0.3 * d.y))))
    for term in d.term_names:
        assert_av_matches_regression(log_model, term)


def test_av_rejects_multi_column_terms():
    rng = np.random.default_rng(42)
    n = 30
    from regsel.table import RawTable, encode_design
    t = RawTable.build(["id", "f", "x", "y"],
                       ["id", "factor", "numeric", "response"],
                       [np.arange(n), rng.choice(list("abcde"), size=n),
                        rng.standard_normal(n), rng.standard_normal(n)])
    m = fit_ols(encode_design(t))
    with pytest.raises(ValueError, match="single-column"):
        added_variable_data(m, "f")
    with pytest.raises(KeyError):
        added_variable_data(m, "ghost")
