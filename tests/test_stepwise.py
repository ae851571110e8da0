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
from regsel.stepwise import MODES, TIE_MARGIN
from regsel.synth import make_wide_benchmark
from oracles import aic_error_bound, best_subset_aic, exhaustive_step_check, refit_step_search


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
    """The scored search makes the moves of a search that refits every candidate,
    alone and run in lockstep with ``modes``.  Its AIC values agree with the
    refits' within twice the c·u·κ·n bound each has against the exact value;
    run in lockstep it reproduces its own trace bit for bit."""
    trace = step_select(d, mode=mode, **kwargs)
    moves, final_terms, skipped = refit_step_search(d, mode, **kwargs)
    assert [(m.direction, m.term) for m in trace.moves] == [mv[:2] for mv in moves]
    if moves:
        assert trace.aic_start == moves[0][2]       # both are fit_ols's AIC of the start model
    current = set(trace.start)
    for mv, (*_, after) in zip(trace.moves, moves):
        current = current - {mv.term} if mv.direction == "remove" else current | {mv.term}
        assert abs(mv.aic_after - after) <= 2.0 * aic_error_bound(d, current)
    assert trace.final_terms == final_terms
    assert list(trace.skipped) == skipped
    together = step_select_modes(d, modes=modes, **kwargs)[mode]
    assert (together.start, together.aic_start, together.moves, together.final_terms) == \
        (trace.start, trace.aic_start, trace.moves, trace.final_terms)
    assert (together.skipped, together.fallback_refits) == (trace.skipped, trace.fallback_refits)
    return trace


def test_scored_search_matches_refit_oracle():
    rng = np.random.default_rng(72)
    for _ in range(6):
        d = factor_design(rng, n=int(rng.integers(40, 160)), p=int(rng.integers(3, 9)),
                          n_factors=int(rng.integers(0, 3)))
        for mode in ("forward", "backward", "both"):
            assert_matches_refit_search(d, mode)


def duplicated_column_design():
    rng = np.random.default_rng(74)
    X = rng.standard_normal((50, 3))
    X = np.column_stack([X, X[:, 0]])          # "dup" repeats x1 exactly
    y = 1.0 + 2.0 * X[:, 0] - X[:, 1] + rng.standard_normal(50)
    return DesignMatrix.from_arrays(X, y, names=["x1", "x2", "x3", "dup"])


def test_fit_ols_runs_only_for_starts_fallback_refits_and_finals(monkeypatch):
    """Applied moves update the factorization instead of refitting: fit_ols runs
    for each start model, for moves that must be refit, and once for each final
    model no refit left.  Modes in lockstep share these fits."""
    import regsel.stepwise as stepwise
    fitted = []

    def counting_fit_ols(design, *args, **kwargs):
        fitted.append(frozenset(design.term_names))
        return fit_ols(design, *args, **kwargs)

    monkeypatch.setattr(stepwise, "fit_ols", counting_fit_ols)

    def ends(traces):
        return {frozenset(t.start) for t in traces.values()} | \
            {frozenset(t.final_terms) for t in traces.values()}

    traces = step_select_modes(signal_design(np.random.default_rng(78), n=120, p=8))
    assert all(t.moves and t.fallback_refits == 0 for t in traces.values())
    assert len(fitted) == len(ends(traces)) == len(set(fitted)) and set(fitted) == ends(traces)

    fitted.clear()
    traces = step_select_modes(duplicated_column_design())
    refits = sum(t.fallback_refits for t in traces.values())
    assert refits > 0 and set(fitted) >= ends(traces)
    assert len(fitted) <= len(ends(traces)) + refits


def test_each_state_is_scored_once_per_direction_its_modes_move_in(monkeypatch):
    """Both-direction search walks backward's path here, so the two share
    every state: no (state, direction) pair is scored twice.  A backward
    search alone never scores additions, a forward one never removals."""
    from regsel.stepwise import _ModelSpace
    scored = []
    for direction, name in (("add", "_additions"), ("remove", "_removals")):
        def counting(self, state, scorer=getattr(_ModelSpace, name), direction=direction):
            scored.append((state, direction))
            return scorer(self, state)
        monkeypatch.setattr(_ModelSpace, name, counting)

    design = signal_design(np.random.default_rng(78), n=120, p=8)
    traces = step_select_modes(design)
    assert traces["backward"].moves and traces["both"].moves == traces["backward"].moves
    assert len(scored) == len(set(scored))
    assert sum(d == "remove" for _, d in scored) == len(traces["backward"].moves) + 1
    for mode, unscored in (("backward", "add"), ("forward", "remove")):
        scored.clear()
        step_select(design, mode=mode)
        assert scored and all(d != unscored for _, d in scored)


def test_updated_factorization_stays_accurate_along_a_long_backward_search():
    """65 qr_delete updates on a 1300 x 90 design: after each, the carried
    factorization is orthonormal and reproduces its columns to 1e-13, and at
    every fourth and the last its RSS is within 1e-12 of a fresh fit's
    (largest seen: 7e-15, 8e-16 and 6e-16)."""
    from regsel.stepwise import _ModelSpace
    design, _ = make_wide_benchmark(1300, 90, n_signal=10)
    trace = step_select(design, mode="backward")
    assert len(trace.moves) >= 50 and trace.fallback_refits == 0
    space = _ModelSpace(design, Scope())
    state = space.fit(frozenset(trace.start))
    for i, move in enumerate(trace.moves, start=1):
        state = space.move(state, move.direction, move.term)
        assert state.aic == move.aic_after      # the factorization the search carried
        q, r, X_S = state.qr.q, state.qr.r, design.X[:, state.qr.pivot[:state.qr.rank]]
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-13      # Frobenius norms
        assert np.linalg.norm(q @ r - X_S) <= 1e-13 * np.linalg.norm(X_S)
        if i % 4 == 0 or i == len(trace.moves):
            fresh = fit_ols(design.subset_terms(state.terms))
            assert abs(state.rss - fresh.rss) <= 1e-12 * fresh.rss


def test_updated_factorization_stays_accurate_along_a_long_forward_search():
    """The forward twin: 66 insert updates on a 1300 x 90 design with 60
    signal columns, under the same bounds (largest seen: 3e-15, 2e-16 and
    6e-16)."""
    from regsel.stepwise import _ModelSpace
    design, _ = make_wide_benchmark(1300, 90, n_signal=60)
    trace = step_select(design, mode="forward")
    assert len(trace.moves) >= 50 and trace.fallback_refits == 0
    space = _ModelSpace(design, Scope())
    state = space.fit(frozenset(trace.start))
    for i, move in enumerate(trace.moves, start=1):
        state = space.move(state, move.direction, move.term)
        assert state.aic == move.aic_after
        qr = state.qr
        q, r, X_S = qr.q, qr.r, design.X[:, qr.pivot[:qr.rank]]
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-13
        assert np.linalg.norm(q @ r - X_S) <= 1e-13 * np.linalg.norm(X_S)
        if i % 4 == 0 or i == len(trace.moves):
            fresh = fit_ols(design.subset_terms(state.terms))
            assert abs(state.rss - fresh.rss) <= 1e-12 * fresh.rss


def test_well_conditioned_search_needs_no_extra_refits():
    rng = np.random.default_rng(73)
    d = signal_design(rng, n=120, p=8)
    for mode in ("forward", "backward", "both"):
        assert assert_matches_refit_search(d, mode).fallback_refits == 0


def test_duplicated_column_takes_aliasing_fallback():
    d = duplicated_column_design()
    for mode in ("forward", "backward", "both"):
        trace = assert_matches_refit_search(d, mode)
        assert trace.fallback_refits > 0


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
    assert trace.fallback_refits > 0            # the aliased duplicate was refit, not scored


def test_near_tie_within_the_margin_goes_to_the_earliest_term():
    """'second' fits a little better than 'first', by less than TIE_MARGIN:
    the earlier term wins, in the search and in the refit oracle alike."""
    rng = np.random.default_rng(75)
    x = rng.standard_normal(40)
    other = rng.standard_normal(40)
    y = 2.0 * x + 0.3 * other + rng.standard_normal(40)
    second = x + 1e-9 * rng.standard_normal(40)
    d = DesignMatrix.from_arrays(np.column_stack([other, x, second]), y,
                                 names=["other", "first", "second"])
    aic = {t: fit_statistics(fit_ols(d.subset_terms([t]))).aic_selection for t in ("first", "second")}
    assert 0.0 < aic["first"] - aic["second"] < TIE_MARGIN
    assert assert_matches_refit_search(d, "forward").moves[0].term == "first"


def test_search_on_a_constant_response_whose_tss_rounds_above_zero_raises():
    X = np.random.default_rng(77).standard_normal((20, 2))
    with pytest.raises(ValueError, match="fit statistics undefined: the response is constant"):
        step_select(DesignMatrix.from_arrays(X, np.full(20, 0.1)), mode="forward")


def test_candidate_without_residual_df_is_logged_as_skipped():
    rng = np.random.default_rng(76)
    X = rng.standard_normal((4, 3))
    y = 1.0 + 3.0 * X[:, 0] + 2.0 * X[:, 1] + 0.01 * rng.standard_normal(4)
    d = DesignMatrix.from_arrays(X, y)
    trace = assert_matches_refit_search(d, "forward", modes=("forward",))   # the upper model has no residual df
    assert [m.term for m in trace.moves] == ["x1", "x2"]
    assert trace.skipped == ("add x3: residual variance undefined: no residual degrees of freedom",)


def _exact_x1_design():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((30, 2))
    return DesignMatrix.from_arrays(X, 1.0 + 2.0 * X[:, 0], names=["x1", "x2"])


@pytest.mark.parametrize("kwargs, error, message", [
    ({"scope": Scope(upper=("x1", "x9"))}, KeyError, "scope names unknown terms: x9"),
    ({"scope": Scope(lower=("x1",), upper=("x2",))}, ValueError,
     "scope lower model must be a subset of the upper model"),
    ({"modes": ("forward", "sideways")}, ValueError,
     f"mode must be one of {MODES}, got 'sideways'"),
    ({"scope": Scope(upper=("x2",)), "start": ("x1",)}, ValueError,
     "start model must lie within the scope"),
    ({"start": ("x1",)}, ValueError, "AIC undefined: residual sum of squares is (numerically) zero"),
], ids=["unknown-term", "lower-not-in-upper", "unknown-mode", "start-outside-scope", "start-fit-fails"])
def test_step_select_modes_errors(kwargs, error, message):
    with pytest.raises(error) as excinfo:
        step_select_modes(_exact_x1_design(), **kwargs)
    assert excinfo.value.args == (message,)


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


@pytest.mark.parametrize("n_models, labels, message", [
    (0, None, "no models to compare"),
    (1, ("a", "b"), "labels length must match the number of models"),
], ids=["no-models", "labels-length"])
def test_compare_models_errors(n_models, labels, message):
    d = signal_design(np.random.default_rng(67), n=30, p=2, signal=(0,))
    with pytest.raises(ValueError) as excinfo:
        compare_models([fit_ols(d)] * n_models, labels=labels)
    assert str(excinfo.value) == message


def test_compare_models_default_labels():
    d = signal_design(np.random.default_rng(68), n=30, p=2, signal=(0,))
    assert compare_models([fit_ols(d)] * 2).labels == ("model1", "model2")


def test_comparison_table_render_and_tsv():
    rng = np.random.default_rng(66)
    d = signal_design(rng, n=50, p=3, signal=(0,))
    table = compare_models([fit_ols(d)], labels=("only",))
    assert "sum_sq_press" in table.render()
    tsv = table.to_tsv().strip().splitlines()
    assert tsv[0] == "metric\tonly"
    assert len(tsv) == 6
