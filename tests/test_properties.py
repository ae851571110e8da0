"""Property tests of the checkpoint format, the OLS core, VIF pruning and CV.

Random tables check that the pipeline's checkpoint format (``write_table``
and ``write_schema``, read back by ``read_schema`` and ``load_table``)
reproduces every cell.  For the OLS core each example draws a design shape
and a seed for its values.  Designs with one exactly duplicated column and
factors check the rank/leverage identity and the PRESS = leave-one-out
identity; designs with near-collinear columns check VIFs and the prune
trail against auxiliary regressions.  Nested candidate sets over a factor
with rare levels check Monte Carlo CV against literal refits.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regsel import (CVConfig, DesignMatrix, RawTable, encode_design, fit_ols, load_table,
                    mc_cross_validate, press_residuals, read_schema, vif_prune, write_schema,
                    write_table)
from oracles import (loo_predictions, prune_by_auxiliary_regression, refit_cv_mspe,
                     unseen_level_rows)

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


# Cells as the pipeline writes them: any finite float or NaN (written ``NA``),
# and factor labels that are stripped, non-empty and not ``NA``, because
# load_table strips every cell and reads ``NA`` as missing.  NUL is left out:
# the csv reader of Python 3.10 rejects it.
NUMBERS = st.one_of(st.floats(allow_infinity=False),
                    st.sampled_from([math.nan, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                                     1.7976931348623157e308, -1e-300, 1e300]))
LABELS = st.one_of(
    st.sampled_from(["a,b", '"q"', 'x""y', "it's", 'a, "b"', "é", "名前", "Ω,\"ß\"", "a\nb"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
            min_size=1, max_size=8),
).map(str.strip).filter(lambda label: label and label != "NA")


@st.composite
def checkpoint_tables(draw):
    """A table with an integer or string id, numeric and factor columns
    (missing cells allowed) and a response."""
    n = draw(st.integers(1, 12))
    column = lambda cells: draw(st.lists(cells, min_size=n, max_size=n))
    if draw(st.booleans()):
        ids = column(st.integers(-2 ** 63, 2 ** 63 - 1))
    else:
        ids = np.array(["id-" + label for label in column(LABELS)], dtype=object)
    n_num, n_fac = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    names = ["id", *(f"x{j}" for j in range(n_num)), *(f"f{j}" for j in range(n_fac)), "y"]
    roles = ["id", *["numeric"] * n_num, *["factor"] * n_fac, "response"]
    columns = [ids, *(column(NUMBERS) for _ in range(n_num)),
               *(column(st.none() | LABELS) for _ in range(n_fac)), column(NUMBERS)]
    return RawTable.build(names, roles, columns)


@PROPERTY_SETTINGS
@given(checkpoint_tables())
def test_checkpoint_round_trip_is_exact(table):
    with tempfile.TemporaryDirectory() as tmp:
        back = load_table(write_table(table, Path(tmp) / "prep.csv"),
                          read_schema(write_schema(table, Path(tmp) / "prep.schema")))
    assert back.names == table.names and back.roles == table.roles
    assert back.levels == table.levels
    for name, role, want, got in zip(table.names, table.roles, table.columns, back.columns):
        if role.value in ("numeric", "response"):
            assert np.array_equal(np.isnan(got), np.isnan(want)), name
            ok = ~np.isnan(want)
            assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64)), name
        else:
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name


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


@st.composite
def near_collinear_designs(draw):
    """Four to eight numeric columns, one to three of which are rewritten as
    another column, or a combination of two, plus noise of scale 1e-9 to
    1e-2; every column is then rescaled and shifted."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.integers(4, 8))
    n = draw(st.integers(30, 80))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    for _ in range(draw(st.integers(1, 3))):
        target, a, b = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3, unique=True))
        weight = draw(st.sampled_from([0.0, 0.5, -1.0]))
        noise = 10.0 ** draw(st.floats(-9.0, -2.0))
        X[:, target] = X[:, a] + weight * X[:, b] + noise * rng.standard_normal(n)
    X = X * rng.uniform(0.1, 10.0, p) + rng.normal(0.0, 5.0, p)
    return DesignMatrix.from_arrays(X, rng.standard_normal(n))


def assert_vifs_agree(got, want):
    """Both infinite, or within a relative 1e-13 x VIF: the rounding error of
    a VIF grows with the conditioning of its block, and a block whose VIFs
    are all finite has none above VIF_COLLINEAR."""
    assert math.isinf(got) == math.isinf(want)
    if math.isfinite(want):
        assert abs(got - want) <= 1e-13 * want * want


@PROPERTY_SETTINGS
@given(near_collinear_designs())
def test_vif_prune_matches_auxiliary_regression(design):
    _, report = vif_prune(design, vstar=10.0)
    trail, values = prune_by_auxiliary_regression(design, 10.0)
    assert [name for name, _ in report.trail] == [name for name, _ in trail]
    for (_, got), (_, want) in zip(report.trail, trail):
        assert_vifs_agree(got, want)
    assert report.values.keys() == values.keys()
    for name, want in values.items():
        assert_vifs_agree(report.values[name], want)


@st.composite
def nested_cv_problems(draw):
    """A design whose factor f has common levels a and b and one to three
    rare levels of one or two rows, and candidates that are nested prefixes
    of a random term order."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    p = draw(st.integers(1, 4))
    n = draw(st.integers(30, 60))
    rare = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    common = n - sum(rare)
    labels = np.array(["a", "b"] * (common // 2) + ["a"] * (common % 2)
                      + [f"r{k}" for k, rows in enumerate(rare) for _ in range(rows)])
    labels = labels[rng.permutation(n)]
    X = rng.standard_normal((n, p))
    y = 1.0 + X @ rng.standard_normal(p) + (labels != "a") + rng.standard_normal(n)
    names = ["id", *(f"x{j + 1}" for j in range(p)), "f", "y"]
    roles = ["id", *["numeric"] * p, "factor", "response"]
    design = encode_design(RawTable.build(names, roles, [np.arange(n), *X.T, labels, y]))
    order = draw(st.permutations(design.term_names))
    sizes = sorted(draw(st.sets(st.integers(1, len(order)), min_size=1)))
    models = {f"m{k}": tuple(order[:k]) for k in sizes}
    config = CVConfig.for_models(models, replications=30, seed=draw(st.integers(0, 1000)))
    return design, labels, config


@PROPERTY_SETTINGS
@given(nested_cv_problems())
def test_nested_cv_matches_refits_with_rare_levels(problem):
    design, labels, config = problem
    res = mc_cross_validate(design, config)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(design, config), rtol=1e-10, atol=0)
    unseen = unseen_level_rows(labels, config)
    has_f = ["f" in terms for _, terms in config.models]
    assert res.exact_refits == (0,) * len(has_f)
    assert res.reduced_solves == tuple(int(np.count_nonzero(unseen)) * f for f in has_f)
    assert res.unseen_level_rows == tuple(int(unseen.sum()) * f for f in has_f)
