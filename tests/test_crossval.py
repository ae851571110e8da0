import numpy as np
import pytest

from regsel import (
    CVConfig,
    DesignMatrix,
    emit_mspe_boxplot_data,
    fit_ols,
    five_number_summary,
    mc_cross_validate,
    predict,
    replication_split,
    write_mspe_dump,
    write_mspe_summary,
)
from regsel.crossval import _Chain, _columns, _replication_splits
from regsel.table import RawTable, encode_design

from oracles import random_design, reencoded_cv_mspe, refit_cv_mspe, unseen_level_rows


def noisy_design(rng, n=60, p=4, sigma=1.0):
    X = rng.standard_normal((n, p))
    beta = np.arange(1, p + 1, dtype=float)
    y = 2.0 + X @ beta + sigma * rng.standard_normal(n)
    return DesignMatrix.from_arrays(X, y)


def factor_table(rng, labels, p=3):
    """Numeric columns x1..xp and a factor f carrying ``labels`` (reference level "a")."""
    labels = np.asarray(labels, dtype=object)
    n = labels.size
    x = rng.standard_normal((n, p))
    y = 1.0 + x @ rng.standard_normal(p) + 2.0 * (labels != "a") + rng.standard_normal(n)
    names = ["id", *(f"x{j + 1}" for j in range(p)), "f", "y"]
    roles = ["id", *["numeric"] * p, "factor", "response"]
    return RawTable.build(names, roles, [np.arange(n), *x.T, labels, y])


def factor_design(rng, labels, p=3):
    return encode_design(factor_table(rng, labels, p))


def chain_members(design, config):
    """The design columns of each chain's members."""
    keys = list(dict.fromkeys(_columns(design, terms) for _, terms in config.models))
    return [chain.members for chain in _Chain.build(design.X, design.y, keys)]


def config_for(design, reps=40, terms=None, **kwargs):
    terms = design.term_names if terms is None else terms
    return CVConfig.for_models({"m1": terms}, replications=reps, **kwargs)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_is_disjoint_exhaustive_and_sized():
    for n, frac in ((60, 0.8), (5, 0.5), (15, 0.5), (25, 0.9)):
        n_train = round(frac * n)
        train, test = replication_split(1234, 7, n, n_train)
        assert len(train) == n_train
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(n))


def test_train_size_uses_round_half_to_even():
    assert round(0.5 * 5) == 2          # 2.5 rounds down to even
    assert round(0.5 * 15) == 8         # 7.5 rounds up to even
    rng = np.random.default_rng(80)
    d = noisy_design(rng, n=15)
    res = mc_cross_validate(d, config_for(d, reps=3, train_fraction=0.5))
    train, test = replication_split(res.config.seed, 0, 15, 8)
    assert len(train) == 8 and len(test) == 7


def test_rekeyed_splits_equal_replication_split():
    for seed in (0, 20883271):
        for n, n_train in ((1300, 1040), (37, 30)):
            splits = _replication_splits(seed, 2000, n, n_train)
            for i, (train, test) in enumerate(splits):
                want_train, want_test = replication_split(seed, i, n, n_train)
                assert np.array_equal(train, want_train) and np.array_equal(test, want_test)
            assert i == 1999


def test_split_independent_of_other_replications():
    a = replication_split(99, 5, 40, 32)
    b = replication_split(99, 5, 40, 32)
    np.testing.assert_array_equal(a[0], b[0])
    c = replication_split(99, 6, 40, 32)
    assert not np.array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# mc_cross_validate
# ---------------------------------------------------------------------------


def test_noiseless_data_gives_zero_mspe():
    rng = np.random.default_rng(81)
    X = rng.standard_normal((50, 3))
    y = 1.0 + X @ np.array([1.0, -2.0, 0.5])
    d = DesignMatrix.from_arrays(X, y)
    res = mc_cross_validate(d, config_for(d, reps=20))
    assert res.mspe.max() <= 1e-16 * float(y @ y) / y.size


def test_same_seed_is_bitwise_identical():
    rng = np.random.default_rng(82)
    d = noisy_design(rng)
    r1 = mc_cross_validate(d, config_for(d, reps=25, seed=4321))
    r2 = mc_cross_validate(d, config_for(d, reps=25, seed=4321))
    assert np.array_equal(r1.mspe, r2.mspe)
    r3 = mc_cross_validate(d, config_for(d, reps=25, seed=4322))
    assert not np.array_equal(r1.mspe, r3.mspe)


def test_candidates_share_the_split():
    rng = np.random.default_rng(84)
    d = noisy_design(rng)
    cfg = CVConfig.for_models({"a": d.term_names, "b": d.term_names}, replications=20)
    res = mc_cross_validate(d, cfg)
    assert np.array_equal(res.column("a"), res.column("b"))


def test_appending_replications_preserves_prefix():
    rng = np.random.default_rng(85)
    d = noisy_design(rng)
    short = mc_cross_validate(d, config_for(d, reps=20))
    long = mc_cross_validate(d, config_for(d, reps=40))
    assert np.array_equal(short.mspe, long.mspe[:20])


def test_mean_mspe_matches_analytic_expectation():
    rng = np.random.default_rng(86)
    n, p, sigma = 250, 6, 1.3
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y = 1.0 + X @ beta + sigma * rng.standard_normal(n)
    d = DesignMatrix.from_arrays(X, y)
    res = mc_cross_validate(d, config_for(d, reps=2000))
    n_train = round(0.8 * n)
    expected = sigma ** 2 * (1.0 + (p + 1) / n_train)
    assert abs(res.mspe.mean() - expected) < 0.05 * expected


def test_rmspe_is_elementwise_sqrt():
    rng = np.random.default_rng(87)
    d = noisy_design(rng)
    res = mc_cross_validate(d, config_for(d, reps=10))
    np.testing.assert_array_equal(res.rmspe, np.sqrt(res.mspe))


def test_unseen_factor_level_fallback_and_audit():
    rng = np.random.default_rng(88)
    n = 20
    labels = np.array(["common"] * (n - 1) + ["rare"], dtype=object)
    t = RawTable.build(["id", "x", "f", "y"],
                       ["id", "numeric", "factor", "response"],
                       [np.arange(n), rng.standard_normal(n), labels,
                        rng.standard_normal(n)])
    d = encode_design(t)
    res = mc_cross_validate(d, config_for(d, reps=50, seed=7))
    assert np.isfinite(res.mspe).all()
    assert res.unseen_level_rows[0] > 0      # the rare level landed in some test sets


def test_deletion_identity_matches_refits_on_nested_candidates():
    rng = np.random.default_rng(93)
    for n, p, frac in ((40, 3, 0.8), (90, 7, 0.5), (20, 10, 0.8)):
        d = random_design(rng, n, p)
        names = d.term_names
        models = {"small": names[:1], "mid": names[: p // 2 + 1], "full": names,
                  "same": names[::-1]}     # the column set of "full", listed in another order
        cfg = CVConfig.for_models(models, replications=30, train_fraction=frac, seed=11)
        res = mc_cross_validate(d, cfg)
        np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
        assert res.exact_refits == (0, 0, 0, 0)
        assert np.array_equal(res.column("full"), res.column("same"))


def test_two_row_factor_level_takes_a_reduced_solve_when_both_rows_are_held_out():
    rng = np.random.default_rng(94)
    n, reps, seed = 60, 200, 3
    labels = np.array(["a", "b"] * 29 + ["rare"] * 2, dtype=object)
    rng.shuffle(labels)
    x = rng.standard_normal((n, 2))
    y = 1.0 + x @ np.array([1.0, -0.5]) + 2.0 * (labels == "rare") + rng.standard_normal(n)
    d = encode_design(RawTable.build(
        ["id", "x1", "x2", "f", "y"], ["id", "numeric", "numeric", "factor", "response"],
        [np.arange(n), x[:, 0], x[:, 1], labels, y]))
    cfg = CVConfig.for_models({"numeric": ("x1", "x2"), "factor": ("x1", "x2", "f")},
                              replications=reps, seed=seed)
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    rare = np.flatnonzero(labels == "rare")
    unseen_reps = sum(not np.isin(rare, replication_split(seed, i, n, round(0.8 * n))[0]).any()
                      for i in range(reps))
    assert unseen_reps > 0
    assert res.exact_refits == (0, 0)
    assert res.reduced_solves == (0, unseen_reps)
    assert res.unseen_level_rows == (0, 2 * unseen_reps)


def test_nested_member_that_is_not_a_design_prefix_shares_the_chain():
    rng = np.random.default_rng(96)
    d = random_design(rng, 50, 4)
    cfg = CVConfig.for_models({"outer": ("x1", "x2", "x3", "x4"), "inner": ("x3", "x1")},
                              replications=40, seed=5)
    assert chain_members(d, cfg) == [[(0, 1, 3), (0, 1, 2, 3, 4)]]
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    assert res.exact_refits == (0, 0) and res.reduced_solves == (0, 0)


def test_incomparable_candidates_form_separate_chains():
    rng = np.random.default_rng(97)
    d = random_design(rng, 45, 4)
    cfg = CVConfig.for_models({"a": ("x1",), "ab": ("x1", "x2"), "c": ("x3",), "cd": ("x3", "x4")},
                              replications=40, seed=6)
    assert chain_members(d, cfg) == [[(0, 1), (0, 1, 2)], [(0, 3), (0, 3, 4)]]
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    assert res.exact_refits == (0, 0, 0, 0) and res.reduced_solves == (0, 0, 0, 0)


def test_rank_deficient_largest_member_joins_the_chain_on_its_estimable_columns():
    rng = np.random.default_rng(98)
    X = rng.standard_normal((50, 3))
    X = np.column_stack([X, X[:, 1]])       # x4 duplicates x2
    y = 1.0 + X[:, :3] @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(50)
    d = DesignMatrix.from_arrays(X, y)
    cfg = CVConfig.for_models({"small": ("x1",), "mid": ("x1", "x2"), "dup": d.term_names},
                              replications=30, seed=7)
    assert chain_members(d, cfg) == [[(0, 1), (0, 1, 2), (0, 1, 2, 3)]]     # x4 is not estimable
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    assert res.exact_refits == (0, 0, 0)
    assert res.reduced_solves == (0, 0, 0)


def test_rare_level_in_the_smallest_member_takes_reduced_solves_along_the_chain():
    rng = np.random.default_rng(99)
    labels = np.array(["a", "b"] * 24 + ["rare"] * 2)
    rng.shuffle(labels)
    d = factor_design(rng, labels)
    cfg = CVConfig.for_models({"small": ("f",), "mid": ("f", "x1"), "full": ("f", "x1", "x2", "x3")},
                              replications=200, seed=8)
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    unseen = unseen_level_rows(labels, cfg)
    reps = int(np.count_nonzero(unseen))
    assert reps > 0
    assert res.exact_refits == (0, 0, 0)
    assert res.reduced_solves == (reps, reps, reps)
    assert res.unseen_level_rows == (int(unseen.sum()),) * 3


def test_two_rare_levels_held_out_together_are_both_dropped():
    rng = np.random.default_rng(100)
    labels = np.array(["a", "b"] * 17 + ["r1", "r1", "r2"])
    rng.shuffle(labels)
    d = factor_design(rng, labels, p=2)
    cfg = CVConfig.for_models({"numeric": ("x1", "x2"), "factor": ("x1", "x2", "f")},
                              replications=400, seed=9)
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    unseen = unseen_level_rows(labels, cfg)
    assert (unseen == 3).any()               # both rare levels held out in one replication
    assert res.exact_refits == (0, 0)
    assert res.reduced_solves == (0, int(np.count_nonzero(unseen)))
    assert res.unseen_level_rows == (0, int(unseen.sum()))


def test_numeric_column_zero_on_the_training_rows_is_dropped():
    rng = np.random.default_rng(101)
    n, reps = 40, 300
    X = rng.standard_normal((n, 3))
    X[2:, 2] = 0.0                          # x3 is nonzero on two rows only, and is no dummy
    y = 1.0 + X @ np.array([1.0, -1.0, 3.0]) + rng.standard_normal(n)
    d = DesignMatrix.from_arrays(X, y)
    cfg = CVConfig.for_models({"small": ("x1",), "full": d.term_names}, replications=reps, seed=4)
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    both_held_out = sum(not np.isin([0, 1], replication_split(4, i, n, 32)[0]).any()
                        for i in range(reps))
    assert both_held_out > 0
    assert res.exact_refits == (0, 0)
    assert res.reduced_solves == (0, both_held_out) and res.unseen_level_rows == (0, 0)


def test_rank_deficient_candidate_shares_the_solve_of_its_estimable_columns():
    rng = np.random.default_rng(95)
    X = rng.standard_normal((50, 3))
    X = np.column_stack([X, X[:, 1]])       # an exact duplicate of x2
    y = 1.0 + X[:, :3] @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(50)
    d = DesignMatrix.from_arrays(X, y)
    cfg = CVConfig.for_models({"dup": d.term_names, "clean": d.term_names[:3]}, replications=25)
    res = mc_cross_validate(d, cfg)
    np.testing.assert_allclose(res.mspe, refit_cv_mspe(d, cfg), rtol=1e-10, atol=0)
    assert np.array_equal(res.column("dup"), res.column("clean"))
    assert res.exact_refits == (0, 0)


def test_columns_collinear_on_the_training_rows_take_the_exact_refit():
    rng = np.random.default_rng(102)
    n, reps = 40, 300
    X = rng.standard_normal((n, 3))
    X[:, 2] = X[:, 0] + 0.5 * X[:, 1]
    X[:2, 2] += 1.0                         # x3 leaves the span of x1 and x2 on two rows only
    y = 1.0 + X @ np.array([1.0, -1.0, 2.0]) + rng.standard_normal(n)
    d = DesignMatrix.from_arrays(X, y)
    cfg = CVConfig.for_models({"small": ("x1",), "full": d.term_names}, replications=reps, seed=4)
    res = mc_cross_validate(d, cfg)
    splits = [replication_split(4, i, n, 32) for i in range(reps)]
    collinear = np.array([not np.isin([0, 1], train).any() for train, _ in splits])
    assert collinear.any()
    assert res.exact_refits == (0, int(np.count_nonzero(collinear)))
    assert res.reduced_solves == (0, 0)
    for i in np.flatnonzero(collinear):     # the pivoted refit is fit_ols on the training rows
        train, test = splits[i]
        err = d.y[test] - predict(fit_ols(d.take_rows(train)), d.take_rows(test))
        assert res.column("full")[i] == pytest.approx(float(err @ err) / err.size, rel=1e-10)
    np.testing.assert_allclose(res.mspe[~collinear], refit_cv_mspe(d, cfg)[~collinear],
                               rtol=1e-10, atol=0)


def test_held_out_reference_level_makes_the_first_training_level_the_reference():
    rng = np.random.default_rng(2)
    labels = np.array(["a"] * 2 + ["b", "c"] * 24, dtype=object)
    rng.shuffle(labels)
    table = factor_table(rng, labels)
    cfg = CVConfig.for_models({"numeric": ("x1", "x2", "x3"), "factor": ("x1", "x2", "x3", "f")},
                              replications=200, seed=3)
    res = mc_cross_validate(encode_design(table), cfg)
    np.testing.assert_allclose(res.mspe, reencoded_cv_mspe(table, cfg), rtol=1e-10, atol=0)
    unseen = unseen_level_rows(labels, cfg)
    assert np.count_nonzero(unseen) == 7     # both "a" rows held out
    assert res.exact_refits == (0, 0)
    assert res.reduced_solves == (0, 7)
    assert res.unseen_level_rows == (0, int(unseen.sum()))


def test_design_without_its_reference_rows_re_references_each_split():
    rng = np.random.default_rng(5)
    labels = np.array(["a"] + ["b"] * 45 + ["c"] * 2, dtype=object)
    rng.shuffle(labels)
    # the only "a" row is excluded: in the full data the dummies of b and c sum to the intercept
    d = factor_design(rng, labels, p=2).drop_rows(np.flatnonzero(labels == "a"))
    labels = labels[labels != "a"]
    cfg = CVConfig.for_models({"numeric": ("x1", "x2"), "factor": ("x1", "x2", "f")},
                              replications=300, seed=2)
    res = mc_cross_validate(d, cfg)
    unseen = unseen_level_rows(labels, cfg)
    only_b = unseen > 0                     # both "c" rows held out: every training row is "b"
    assert np.count_nonzero(only_b) == 8
    assert res.exact_refits == (0, 0)
    assert res.reduced_solves == (0, 8)
    assert res.unseen_level_rows == (0, int(unseen.sum()))
    # a factor with one training level adds nothing; otherwise the fit is the lstsq refit
    np.testing.assert_allclose(res.column("factor")[only_b], res.column("numeric")[only_b],
                               rtol=1e-10, atol=0)
    np.testing.assert_allclose(res.mspe[~only_b], refit_cv_mspe(d, cfg)[~only_b], rtol=1e-10, atol=0)


def test_config_validation():
    rng = np.random.default_rng(89)
    d = noisy_design(rng, n=12, p=10)
    with pytest.raises(ValueError, match="too small"):
        mc_cross_validate(d, config_for(d, reps=5, train_fraction=0.8))
    with pytest.raises(ValueError, match="replications"):
        mc_cross_validate(d, config_for(d, reps=0))
    with pytest.raises(ValueError, match="train_fraction"):
        mc_cross_validate(d, config_for(d, reps=5, train_fraction=1.2))
    with pytest.raises(ValueError, match="no candidate models"):
        mc_cross_validate(d, CVConfig(models=()))


def test_training_size_that_leaves_no_held_out_rows_is_rejected():
    d = noisy_design(np.random.default_rng(90), n=3, p=1)
    with pytest.raises(ValueError) as excinfo:
        mc_cross_validate(d, config_for(d, reps=5, train_fraction=0.9))
    assert str(excinfo.value) == "training size 3 leaves no held-out rows (n=3)"


@pytest.mark.parametrize("setting, match", [
    ({"replications": 0}, "replications"), ({"train_fraction": 0.0}, "train_fraction"),
    ({"train_fraction": 1.0}, "train_fraction"), ({"seed": -1}, "seed"), ({"seed": 2 ** 64}, "seed"),
])
def test_cv_config_rejects_bad_settings(setting, match):
    with pytest.raises(ValueError, match=match):
        CVConfig(models=(("m", ("x1",)),), **setting)
    CVConfig(models=(("m", ("x1",)),), seed=2 ** 64 - 1)


# ---------------------------------------------------------------------------
# five-number summaries
# ---------------------------------------------------------------------------


def test_five_number_summary_odd_vector():
    s = five_number_summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.as_tuple() == (1.0, 2.0, 3.0, 3.0, 4.0, 5.0)
    assert s.iqr == 2.0


def test_five_number_summary_reproduces_reference_iqr():
    # five points whose interpolated quartiles land exactly on the values
    v = [150000.0, 194558.0, 207840.0, 222450.0, 292560.0]
    s = five_number_summary(v)
    assert s.q1 == 194558.0 and s.q3 == 222450.0
    assert s.iqr == 27892.0


def test_five_number_summary_matches_numpy_oracle():
    rng = np.random.default_rng(90)
    v = rng.standard_normal(101) * 40.0
    s = five_number_summary(v)
    assert abs(s.q1 - np.quantile(v, 0.25)) < 1e-12
    assert abs(s.median - np.quantile(v, 0.5)) < 1e-12
    assert abs(s.q3 - np.quantile(v, 0.75)) < 1e-12
    assert s.minimum == v.min() and s.maximum == v.max()
    assert abs(s.mean - v.mean()) < 1e-12


def test_five_number_summary_empty_vector():
    with pytest.raises(ValueError, match="empty"):
        five_number_summary([])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _result_with_column(values, tmp_path):
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    from regsel.crossval import CVResult
    cfg = CVConfig.for_models({"m": ("x",)}, replications=values.shape[0])
    return CVResult(labels=("m",), mspe=values, config=cfg, unseen_level_rows=(0,))


def _read_boxplot(path):
    stats, outliers = {}, []
    for line in path.read_text().strip().splitlines()[1:]:
        key, val = line.split("\t")
        if key == "outlier":
            outliers.append(float(val))
        else:
            stats[key] = float(val)
    return stats, outliers


def test_boxplot_constant_vector_degenerate(tmp_path):
    res = _result_with_column([5.0] * 12, tmp_path)
    (path,) = emit_mspe_boxplot_data(res, tmp_path)
    stats, outliers = _read_boxplot(path)
    assert stats["min"] == stats["q1"] == stats["median"] == stats["q3"] == stats["max"] == 5.0
    assert outliers == []


def test_boxplot_single_extreme_point(tmp_path):
    values = [10.0, 11.0, 12.0, 11.5, 10.5, 12.5, 11.2, 99.0]
    res = _result_with_column(values, tmp_path)
    (path,) = emit_mspe_boxplot_data(res, tmp_path)
    stats, outliers = _read_boxplot(path)
    assert outliers == [99.0]
    assert stats["upper_fence"] < 99.0


def test_boxplot_fences_recomputable_from_dump(tmp_path):
    rng = np.random.default_rng(91)
    d = noisy_design(rng)
    res = mc_cross_validate(d, config_for(d, reps=60))
    dump = write_mspe_dump(res, tmp_path / "dump.tsv")
    (box,) = emit_mspe_boxplot_data(res, tmp_path)

    rows = [line.split("\t") for line in dump.read_text().strip().splitlines()[1:]]
    v = np.array([float(r[1]) for r in rows])
    q1, q3 = np.quantile(v, 0.25), np.quantile(v, 0.75)
    stats, outliers = _read_boxplot(box)
    assert abs(stats["lower_fence"] - (q1 - 1.5 * (q3 - q1))) < 1e-9
    assert abs(stats["upper_fence"] - (q3 + 1.5 * (q3 - q1))) < 1e-9
    expected_outliers = sorted(v[(v < stats["lower_fence"]) | (v > stats["upper_fence"])])
    assert sorted(outliers) == [pytest.approx(o) for o in expected_outliers]


def test_mspe_summary_layout(tmp_path):
    rng = np.random.default_rng(92)
    d = noisy_design(rng)
    res = mc_cross_validate(d, config_for(d, reps=15))
    path = write_mspe_summary(res, tmp_path / "summary.tsv")
    text = path.read_text()
    assert "# MSPE" in text and "# Root MSPE" in text
    for row in ("Min.", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max."):
        assert text.count(row) == 2
