import numpy as np
import pytest

from regsel import (
    DesignMatrix,
    Scope,
    compare_models,
    dffits,
    fit_ols,
    fit_statistics,
    format_trace,
    press_residuals,
    step_select,
    step_select_modes,
)
from regsel.stepwise import MODES
from oracles import best_subset_aic, exhaustive_step_check, refit_step_search


def signal_design(rng, n=100, p=8, signal=(0, 3), sigma=1.0):
    X = rng.standard_normal((n, p))
    y = 1.0 + sum(2.0 * X[:, j] for j in signal) + sigma * rng.standard_normal(n)
    return DesignMatrix.from_arrays(X, y)


def test_forward_single_candidate():
    rng = np.random.default_rng(50)
    x = rng.standard_normal(40)
    y = 3.0 * x + 0.5 * rng.standard_normal(40)
    d = DesignMatrix.from_arrays(x, y, names=["x1"])
    trace = step_select(d, mode="forward")
    assert [(m.direction, m.term) for m in trace.moves] == [("add", "x1")]
    assert trace.final_aic < trace.aic_start
    assert trace.final_terms == ("x1",)


def test_forward_moves_match_per_step_oracle():
    rng = np.random.default_rng(51)
    for _ in range(3):
        d = signal_design(rng)
        trace = step_select(d, mode="forward")
        exhaustive_step_check(d, trace)


def test_backward_moves_match_per_step_oracle():
    rng = np.random.default_rng(52)
    for _ in range(3):
        d = signal_design(rng)
        trace = step_select(d, mode="backward")
        exhaustive_step_check(d, trace)


def test_both_moves_match_per_step_oracle():
    rng = np.random.default_rng(53)
    for _ in range(3):
        d = signal_design(rng)
        trace = step_select(d, mode="both")
        exhaustive_step_check(d, trace)


def test_backward_removes_pure_noise_first():
    rng = np.random.default_rng(54)
    X = rng.standard_normal((80, 3))
    y = 1.0 + 2.0 * X[:, 0] + 1.5 * X[:, 1] + 0.5 * rng.standard_normal(80)
    d = DesignMatrix.from_arrays(X, y, names=["s1", "s2", "noise"])
    trace = step_select(d, mode="backward")
    assert trace.moves and trace.moves[0].term == "noise"
    assert set(trace.final_terms) == {"s1", "s2"}
    exhaustive_step_check(d, trace)


def test_trace_replay_determinism():
    rng = np.random.default_rng(55)
    d = signal_design(rng)
    t1 = step_select(d, mode="both")
    t2 = step_select(d, mode="both")
    assert t1.moves == t2.moves
    assert np.array_equal(t1.final.coef, t2.final.coef, equal_nan=True)
    assert t1.aic_start == t2.aic_start


def test_scope_is_respected():
    rng = np.random.default_rng(56)
    d = signal_design(rng, p=5, signal=(0,))
    scope = Scope(lower=("x1",), upper=("x1", "x2", "x3"))
    for mode in ("forward", "backward", "both"):
        trace = step_select(d, scope, mode=mode)
        touched = {m.term for m in trace.moves}
        assert "x1" not in touched          # lower terms never move
        assert "x4" not in touched and "x5" not in touched
        assert set(trace.final_terms) >= {"x1"}
        assert set(trace.final_terms) <= {"x1", "x2", "x3"}


def test_both_mode_default_start_is_upper():
    rng = np.random.default_rng(57)
    d = signal_design(rng, p=4, signal=(1,))
    trace = step_select(d, mode="both")
    assert set(trace.start) == set(d.term_names)
    trace_from_null = step_select(d, mode="both", start=())
    assert trace_from_null.start == ()
    assert trace_from_null.moves[0].direction == "add"


def test_aic_strictly_decreases_along_moves():
    rng = np.random.default_rng(58)
    d = signal_design(rng)
    for mode in ("forward", "backward", "both"):
        trace = step_select(d, mode=mode)
        for mv in trace.moves:
            assert mv.aic_after < mv.aic_before - 1e-9


def test_factor_terms_move_as_groups():
    rng = np.random.default_rng(59)
    n = 120
    from regsel.table import RawTable, encode_design
    labels = rng.choice(["a", "b", "c", "d"], size=n)
    effect = np.select([labels == "b", labels == "c", labels == "d"], [2.0, -1.5, 3.0], 0.0)
    x = rng.standard_normal(n)
    y = 1.0 + effect + 0.5 * rng.standard_normal(n) + 0.0 * x
    t = RawTable.build(["id", "x", "f", "y"],
                       ["id", "numeric", "factor", "response"],
                       [np.arange(n), x, labels, y])
    d = encode_design(t)
    trace = step_select(d, mode="forward")
    assert ("add", "f") in [(m.direction, m.term) for m in trace.moves]
    final = trace.final
    assert {"fb", "fc", "fd"} <= set(final.design.column_names)
    exhaustive_step_check(d, trace)


def test_failed_candidate_fit_is_skipped_and_logged():
    # adding the second signal term makes the fit exact, so its AIC is
    # undefined; the move must be skipped, not fatal
    rng = np.random.default_rng(71)
    x1 = rng.standard_normal(12)
    x2 = rng.standard_normal(12)
    y = 1.0 + 2.0 * x1 + 3.0 * x2
    d = DesignMatrix.from_arrays(np.column_stack([x1, x2]), y, names=["x1", "x2"])
    trace = step_select(d, mode="forward")
    assert len(trace.final_terms) == 1
    assert trace.skipped and "AIC undefined" in trace.skipped[0]


def test_tie_break_prefers_earliest_term():
    rng = np.random.default_rng(60)
    x = rng.standard_normal(30)
    y = 2.0 * x + rng.standard_normal(30)
    d = DesignMatrix.from_arrays(np.column_stack([x, x]), y, names=["first", "second"])
    trace = step_select(d, mode="forward")
    assert trace.moves[0].term == "first"


def factor_design(rng, n, p, n_factors):
    """Numeric predictors (the first two nearly collinear) plus 3-5 level factors."""
    from regsel.table import RawTable, encode_design
    X = rng.standard_normal((n, p))
    X[:, 1] = X[:, 0] + 0.05 * rng.standard_normal(n)
    y = 3.0 + X @ (rng.standard_normal(p) * (rng.random(p) < 0.5)) + rng.standard_normal(n)
    names, roles, cols = ["id"], ["id"], [np.arange(n)]
    for j in range(p):
        names.append(f"x{j + 1}"), roles.append("numeric"), cols.append(X[:, j])
    for f in range(n_factors):
        labels = rng.choice(list("abcde")[: 3 + f], size=n)
        y = y + 0.6 * (labels == "b")
        names.append(f"f{f + 1}"), roles.append("factor"), cols.append(labels)
    names.append("y"), roles.append("response"), cols.append(y)
    return encode_design(RawTable.build(names, roles, cols))


def assert_matches_refit_search(d, mode, modes=MODES, **kwargs):
    """The scored search reproduces a search that refits every candidate, bit for bit,
    both alone and run in lockstep with ``modes``."""
    trace = step_select(d, mode=mode, **kwargs)
    moves, final_terms, skipped = refit_step_search(d, mode, **kwargs)
    assert [(m.direction, m.term, m.aic_before, m.aic_after) for m in trace.moves] == moves
    assert trace.final_terms == final_terms
    assert list(trace.skipped) == skipped
    together = step_select_modes(d, modes=modes, **kwargs)[mode]
    assert (together.start, together.aic_start, together.moves, together.final_terms) == \
        (trace.start, trace.aic_start, trace.moves, trace.final_terms)
    assert (together.skipped, together.exact_refits) == (trace.skipped, trace.exact_refits)
    return trace


def test_scored_search_matches_refit_oracle():
    rng = np.random.default_rng(72)
    for _ in range(6):
        d = factor_design(rng, n=int(rng.integers(40, 160)), p=int(rng.integers(3, 9)),
                          n_factors=int(rng.integers(0, 3)))
        for mode in ("forward", "backward", "both"):
            assert_matches_refit_search(d, mode)


def test_lockstep_modes_share_the_fits_of_one_path(monkeypatch):
    """Where backward and both-direction search walk one path, running them in
    lockstep fits each model either fits alone, and shares every model both
    fit.  (Both refits the model its last move left when undoing that move
    scores best, alone or not: fits are kept for one iteration only.)"""
    import regsel.stepwise as stepwise
    rng = np.random.default_rng(78)
    d = signal_design(rng, n=120, p=8)
    fitted = []

    def counting_fit_ols(design, *args, **kwargs):
        fitted.append(design.term_names)
        return fit_ols(design, *args, **kwargs)

    def fits_of(search):
        fitted.clear()
        return search(), list(fitted)

    monkeypatch.setattr(stepwise, "fit_ols", counting_fit_ols)
    backward, backward_fits = fits_of(lambda: step_select(d, mode="backward"))
    _, both_fits = fits_of(lambda: step_select(d, mode="both"))
    traces, fits = fits_of(lambda: step_select_modes(d, modes=("backward", "both")))
    assert backward.moves and traces["both"].moves == traces["backward"].moves == backward.moves
    assert set(fits) == set(backward_fits) | set(both_fits)
    assert len(fits) == len(both_fits) + len(set(backward_fits) - set(both_fits))
    assert len(fits) < len(backward_fits) + len(both_fits)


def test_well_conditioned_search_needs_no_extra_refits():
    rng = np.random.default_rng(73)
    d = signal_design(rng, n=120, p=8)
    for mode in ("forward", "backward", "both"):
        assert assert_matches_refit_search(d, mode).exact_refits == 0


def test_duplicated_column_takes_aliasing_fallback():
    rng = np.random.default_rng(74)
    X = rng.standard_normal((50, 3))
    X = np.column_stack([X, X[:, 0]])          # "dup" repeats x1 exactly
    y = 1.0 + 2.0 * X[:, 0] - X[:, 1] + rng.standard_normal(50)
    d = DesignMatrix.from_arrays(X, y, names=["x1", "x2", "x3", "dup"])
    for mode in ("forward", "backward", "both"):
        trace = assert_matches_refit_search(d, mode)
        assert trace.exact_refits > 0


def test_identical_candidates_tie_goes_to_earliest_term():
    rng = np.random.default_rng(75)
    x = rng.standard_normal(40)
    other = rng.standard_normal(40)
    y = 2.0 * x + 0.3 * other + rng.standard_normal(40)
    d = DesignMatrix.from_arrays(np.column_stack([other, x, x]), y,
                                 names=["other", "first", "second"])
    trace = assert_matches_refit_search(d, "forward")
    assert trace.moves[0].term == "first"
    assert "second" not in trace.final_terms
    assert trace.exact_refits > 0               # the tie was refit, not decided by scores


def test_candidate_without_residual_df_is_logged_as_skipped():
    rng = np.random.default_rng(76)
    X = rng.standard_normal((4, 3))
    y = 1.0 + 3.0 * X[:, 0] + 2.0 * X[:, 1] + 0.01 * rng.standard_normal(4)
    d = DesignMatrix.from_arrays(X, y)
    trace = assert_matches_refit_search(d, "forward", modes=("forward",))   # the upper model has no residual df
    assert [m.term for m in trace.moves] == ["x1", "x2"]
    assert trace.skipped == ("add x3: fit statistics undefined: no residual degrees of freedom",)


def test_best_subset_lower_bound():
    rng = np.random.default_rng(61)
    for _ in range(3):
        d = signal_design(rng, n=60, p=6, signal=(0, 2))
        best = best_subset_aic(d)
        for mode in ("forward", "backward", "both"):
            trace = step_select(d, mode=mode)
            assert trace.final_aic >= best - 1e-9


def test_format_trace_layout():
    rng = np.random.default_rng(62)
    d = signal_design(rng, p=4, signal=(0,))
    text = format_trace(step_select(d, mode="forward"))
    lines = text.strip().splitlines()
    assert lines[0] == "step\tdirection\tterm\taic_before\taic_after"
    assert lines[-1].startswith("formula\ty ~ ")
    body = lines[1:-1]
    assert all(len(row.split("\t")) == 5 for row in body)


# ---------------------------------------------------------------------------
# compare_models
# ---------------------------------------------------------------------------


def test_compare_models_recomputation_oracle():
    rng = np.random.default_rng(63)
    d = signal_design(rng, n=80, p=5, signal=(0, 1))
    m1 = fit_ols(d.subset_terms(("x1", "x2")))
    m2 = fit_ols(d)
    table = compare_models([m1, m2], labels=("small", "full"))
    for label, model in (("small", m1), ("full", m2)):
        col = table.column(label)
        stat = fit_statistics(model)
        assert abs(col["sum_sq_press"] - float(np.sum(press_residuals(model) ** 2))) < 1e-9
        assert abs(col["aic"] - stat.aic_full) < 1e-12
        assert abs(col["adj_r_squared"] - stat.adj_r_squared) < 1e-12
        assert abs(col["sum_sq_dffits"] - float(np.sum(dffits(model) ** 2))) < 1e-9
        assert col["rank"] == model.rank


def test_compare_model_with_itself():
    rng = np.random.default_rng(64)
    d = signal_design(rng, n=50, p=3, signal=(0,))
    m = fit_ols(d)
    table = compare_models([m, m], labels=("a", "b"))
    assert table.column("a") == table.column("b")


def test_compare_models_row_count_mismatch():
    rng = np.random.default_rng(65)
    d = signal_design(rng, n=50, p=3, signal=(0,))
    m1 = fit_ols(d)
    m2 = fit_ols(d.take_rows(np.arange(40)))
    with pytest.raises(ValueError, match="differing row counts"):
        compare_models([m1, m2])


def test_comparison_table_render_and_tsv():
    rng = np.random.default_rng(66)
    d = signal_design(rng, n=50, p=3, signal=(0,))
    table = compare_models([fit_ols(d)], labels=("only",))
    assert "sum_sq_press" in table.render()
    tsv = table.to_tsv().strip().splitlines()
    assert tsv[0] == "metric\tonly"
    assert len(tsv) == 6
