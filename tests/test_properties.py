"""Property tests of the OLS core on random designs with aliased columns and factors.

Each example draws a design shape (rows, numeric predictors, factor levels
and one exactly duplicated column) and a seed for its values; the checks
are the rank/leverage identity and the PRESS = leave-one-out identity.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regsel import RawTable, encode_design, fit_ols, press_residuals
from oracles import loo_predictions

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def aliased_designs(draw):
    """An encoded design whose last numeric column copies another numeric
    column or a factor indicator, or is the sum of two numeric columns, so
    that exactly one column is aliased."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.integers(1, 4))
    n_levels = draw(st.integers(0, 4))          # below 2: no factor
    n = draw(st.integers(max(12, 3 * n_levels), 40))
    kinds = ["copy"] + (["sum"] if p >= 2 else []) + (["dummy"] if n_levels >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(seed)

    names = ["id"] + [f"x{j + 1}" for j in range(p)] + ["dup", "y"]
    roles = ["id"] + ["numeric"] * (p + 1) + ["response"]
    X = rng.standard_normal((n, p))
    y = 1.0 + X @ rng.standard_normal(p) + rng.standard_normal(n)
    columns = [np.arange(1, n + 1)] + list(X.T)
    if n_levels >= 2:
        # every level on at least three rows, so no row has leverage one
        labels = np.array([f"L{i % n_levels}" for i in range(n)])[rng.permutation(n)]
        names.insert(-1, "f")
        roles.insert(-1, "factor")
        y = y + 0.5 * np.array([int(lab[1:]) for lab in labels])
    if kind == "copy":
        dup = X[:, draw(st.integers(0, p - 1))]
    elif kind == "sum":
        a, b = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        dup = X[:, a] + X[:, b]
    else:
        dup = (labels == f"L{draw(st.integers(1, n_levels - 1))}").astype(float)
    columns += [dup]
    if n_levels >= 2:
        columns += [labels]
    columns += [y]
    return encode_design(RawTable.build(names, roles, columns))


@PROPERTY_SETTINGS
@given(aliased_designs())
def test_leverage_sums_to_rank(design):
    m = fit_ols(design)
    assert m.rank == np.linalg.matrix_rank(design.X) == design.n_cols - 1
    assert int(m.aliased.sum()) == 1
    assert abs(m.leverage.sum() - m.rank) < 1e-10 * m.rank


@PROPERTY_SETTINGS
@given(aliased_designs())
def test_press_equals_leave_one_out(design):
    m = fit_ols(design)
    assume(m.leverage.max() < 0.95)
    loo_err = design.y - loo_predictions(design)
    assert np.abs(press_residuals(m) - loo_err).max() < 1e-8
