"""Acceptance gate: thirteen criteria, one test and one printed line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  Tolerances are pinned in the assertions.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from regsel import (
    CVConfig,
    DesignMatrix,
    RawTable,
    added_variable_data,
    adjusted_r_squared,
    aic_full_value,
    cooks_distance,
    dffits,
    encode_design,
    fit_ols,
    five_number_summary,
    mc_cross_validate,
    press_residuals,
    run_pipeline,
    step_select,
    vif,
    vif_prune,
)
from regsel.pipeline import read_config
from regsel.synth import make_wide_benchmark, write_dataset
from oracles import (
    aux_regression_vif,
    best_subset_aic,
    exhaustive_step_check,
    loo_cooks,
    loo_dffits,
    loo_predictions,
    random_design,
)


@contextmanager
def criterion(number: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL {description} "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"[criterion {number:02d}] PASS {description} "
          f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_adjusted_r_squared_identity():
    with criterion(1, "adjusted R-squared identity (0.2827, n=1276, rank=67 -> 0.2435)"):
        assert abs(adjusted_r_squared(0.2827, 1276, 67) - 0.2435) < 1e-4


def test_criterion_02_aic_convention():
    with criterion(2, "full-likelihood AIC convention (-> 19234.33 within 1.0)"):
        rss = 442.2 ** 2 * 1209
        assert abs(aic_full_value(rss, 1276, 67) - 19234.33) <= 1.0


def test_criterion_03_iqr_reproduction():
    with criterion(3, "five-number summary IQR 27892 exact"):
        s = five_number_summary([150000.0, 194558.0, 207840.0, 222450.0, 292560.0])
        assert s.q1 == 194558.0 and s.q3 == 222450.0
        assert s.iqr == 27892.0


def test_criterion_04_press_equals_loo_oracle():
    with criterion(4, "PRESS equals the leave-one-out oracle (100 trials, n=60, p=6, 1e-8)"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            d = random_design(rng, 60, 6)
            press = press_residuals(fit_ols(d))
            loo_err = d.y - loo_predictions(d)
            worst = max(worst, float(np.abs(press - loo_err).max()))
        assert worst < 1e-8


def test_criterion_05_cook_dffits_refit_oracles():
    with criterion(5, "Cook's distance and DFFITS match delete-one refits (50 trials, 1e-8)"):
        hand = fit_ols(DesignMatrix.from_arrays([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], names=["x"]))
        np.testing.assert_allclose(cooks_distance(hand), [2.5, 0.25, 2.5], atol=1e-12)
        rng = np.random.default_rng(2025)
        worst_cook = worst_dffits = 0.0
        for _ in range(50):
            d = random_design(rng, 40, 4)
            m = fit_ols(d)
            worst_cook = max(worst_cook, float(np.abs(cooks_distance(m) - loo_cooks(d)).max()))
            worst_dffits = max(worst_dffits, float(np.abs(dffits(m) - loo_dffits(d)).max()))
        assert worst_cook < 1e-8
        assert worst_dffits < 1e-8


def test_criterion_06_vif_oracle_and_prune():
    with criterion(6, "VIF matches auxiliary regressions; 0.9-pair gives 5.2632; prune bound"):
        rng = np.random.default_rng(2026)
        X = rng.standard_normal((80, 6))
        X[:, 3] = 0.6 * X[:, 0] + 0.8 * rng.standard_normal(80)
        d = DesignMatrix.from_arrays(X, rng.standard_normal(80))
        got, want = vif(d).values, aux_regression_vif(d)
        for name in want:
            assert abs(got[name] - want[name]) <= 1e-10 * want[name]

        Z = rng.standard_normal((100, 2))
        Z -= Z.mean(axis=0)
        Q, _ = np.linalg.qr(Z)
        rho = 0.9
        pair = np.column_stack([Q[:, 0], rho * Q[:, 0] + math.sqrt(1 - rho ** 2) * Q[:, 1]])
        report = vif(DesignMatrix.from_arrays(pair, rng.standard_normal(100), names=["a", "b"]))
        assert abs(report.values["a"] - 5.2632) < 1e-4
        assert abs(report.values["b"] - 5.2632) < 1e-4

        W = rng.standard_normal((120, 6))
        W[:, 2] = W[:, 1] + 0.03 * rng.standard_normal(120)
        W[:, 5] = 0.7 * W[:, 4] + 0.05 * rng.standard_normal(120)
        pruned, rep = vif_prune(DesignMatrix.from_arrays(W, rng.standard_normal(120)), vstar=10.0)
        assert rep.trail and all(v > 10.0 for _, v in rep.trail)
        assert all(v <= 10.0 for v in rep.values.values())
        assert all(v <= 10.0 for v in aux_regression_vif(pruned).values())


def test_criterion_07_leverage_trace_equals_rank():
    with criterion(7, "leverage sums to rank (1e-10 * rank) across fitted models"):
        rng = np.random.default_rng(2027)
        models = []
        for n, p in ((30, 3), (100, 8), (50, 12), (400, 40)):
            models.append(fit_ols(random_design(rng, n, p)))
        x = rng.standard_normal(25)
        aliased = DesignMatrix.from_arrays(np.column_stack([x, x, rng.standard_normal(25)]),
                                           rng.standard_normal(25))
        models.append(fit_ols(aliased))
        labels = rng.choice(["a", "b", "c", "d", "e", "f"], size=60)
        t = RawTable.build(["id", "f", "x", "y"],
                           ["id", "factor", "numeric", "response"],
                           [np.arange(60), labels, rng.standard_normal(60),
                            rng.standard_normal(60)])
        models.append(fit_ols(encode_design(t)))
        for m in models:
            assert abs(m.leverage.sum() - m.rank) <= 1e-10 * m.rank


def _selection_instances(count=20):
    rng = np.random.default_rng(2028)
    out = []
    for _ in range(count):
        X = rng.standard_normal((100, 8))
        signal = rng.choice(8, size=2, replace=False)
        y = 1.0 + 2.0 * X[:, signal[0]] + 1.5 * X[:, signal[1]] + rng.standard_normal(100)
        out.append(DesignMatrix.from_arrays(X, y))
    return out


def test_criterion_08_greedy_step_oracle():
    with criterion(8, "every greedy move is the argmin-AIC candidate (20 instances, 3 modes)"):
        for d in _selection_instances():
            for mode in ("forward", "backward", "both"):
                trace = step_select(d, mode=mode)
                exhaustive_step_check(d, trace)


def test_criterion_09_best_subset_bound():
    with criterion(9, "greedy final AIC never beats the exhaustive best subset (p=8)"):
        for d in _selection_instances():
            best = best_subset_aic(d)
            for mode in ("forward", "backward", "both"):
                assert step_select(d, mode=mode).final_aic >= best - 1e-9


def test_criterion_10_added_variable_identity():
    with criterion(10, "added-variable slope equals the full-model coefficient (1e-10)"):
        rng = np.random.default_rng(2030)
        for _ in range(5):
            d = random_design(rng, 50, 6)
            m = fit_ols(d)
            for j, term in enumerate(d.term_names, start=1):
                assert abs(added_variable_data(m, term).slope - m.coef[j]) < 1e-10


def test_criterion_11_cv_determinism_and_scale():
    with criterion(11, "CV determinism across runs, timing, noiseless and analytic scale"):
        rng = np.random.default_rng(2031)
        # noiseless data recovers exactly
        Xn = rng.standard_normal((60, 4))
        yn = 2.0 + Xn @ np.array([1.0, -1.0, 0.5, 2.0])
        dn = DesignMatrix.from_arrays(Xn, yn)
        res = mc_cross_validate(dn, CVConfig.for_models({"m": dn.term_names}, replications=50))
        assert res.mspe.max() <= 1e-16 * float(yn @ yn) / yn.size

        # well-specified noisy model: mean MSPE within 5% of sigma^2 (1 + r/n_train)
        sigma = 1.3
        Xa = rng.standard_normal((250, 6))
        ya = 1.0 + Xa @ rng.standard_normal(6) + sigma * rng.standard_normal(250)
        da = DesignMatrix.from_arrays(Xa, ya)
        res = mc_cross_validate(da, CVConfig.for_models({"m": da.term_names}, replications=8000))
        expected = sigma ** 2 * (1.0 + 7 / round(0.8 * 250))
        assert abs(res.mspe.mean() - expected) <= 0.05 * expected

        # wide-design case: 8000 replications, n=1300, p=70, three models
        design, models = make_wide_benchmark(n=1300, p=70)
        cfg = CVConfig.for_models(models, replications=8000)
        t0 = time.perf_counter()
        mspe = mc_cross_validate(design, cfg).mspe
        elapsed = time.perf_counter() - t0
        print(f"    8000 reps: {elapsed:.1f}s")
        assert elapsed < 600.0
        assert np.array_equal(mspe, mc_cross_validate(design, cfg).mspe)


def test_criterion_12_factor_encoding():
    with criterion(12, "six-level factor encodes to five indicator columns named by level"):
        labels = [str(i) for i in (1, 2, 3, 4, 5, 6)] * 3
        t = RawTable.build(["id", "cohort", "y"], ["id", "factor", "response"],
                           [np.arange(18), labels, np.ones(18)])
        d = encode_design(t)
        assert d.column_names == ("(Intercept)", "cohort2", "cohort3", "cohort4",
                                  "cohort5", "cohort6")


BUNDLE_FILES = (
    "audit.txt", "prep.csv", "prep.schema",
    "vif_values_before.tsv", "vif_hist_before.tsv", "vif_values_after.tsv",
    "vif_hist_after.tsv", "vif_trail.tsv", "kept_terms.json",
    "trace_forward.tsv", "trace_backward.tsv", "trace_both.tsv", "selected_models.json",
    "influence_full.tsv", "influence_forward.tsv", "influence_backward.tsv",
    "influence_both.tsv", "comparison.tsv", "comparison_side_by_side.tsv",
    "cv_mspe.tsv", "cv_summary.tsv", "cv_audit.txt",
    "boxplot_mspe_forward.tsv", "boxplot_rmspe_forward.tsv",
    "identity_resid_vs_index.tsv", "identity_resid_vs_fitted.tsv",
    "identity_qq.tsv", "identity_studentized_hist.tsv",
    "log_resid_vs_index.tsv", "log_resid_vs_fitted.tsv",
    "log_qq.tsv", "log_studentized_hist.tsv",
    "model_report.txt", "model_report.tsv",
    "excluded/selected_models.json", "excluded/comparison.tsv",
    "excluded/cv_mspe.tsv", "excluded/influence_forward.tsv",
)

CONFIG_13 = """\
table_a = covariates.csv
schema_a = covariates.schema
table_b = exposures.csv
schema_b = exposures.schema
response_table = outcome.csv
response_schema = outcome.schema
factor_columns = flag_a,flag_b,flag_c
exclude_rows = 98
cv_workers = 2
out_dir = {out}
"""


def test_criterion_13_end_to_end_bundle(tmp_path_factory):
    with criterion(13, "end-to-end pipeline with the reference defaults, byte-identical rerun"):
        root = tmp_path_factory.mktemp("accept13")
        write_dataset(root, n=500, seed=6021)
        outs = []
        for name in ("out_a", "out_b"):
            cfg_path = root / f"{name}.cfg"
            cfg_path.write_text(CONFIG_13.format(out=name))
            cfg = read_config(cfg_path)
            # the reference parameterization comes straight from the defaults
            assert (cfg.na_ratio, cfg.vstar, cfg.k_penalty) == (0.01, 10.0, 2.0)
            assert (cfg.cv_replications, cfg.cv_train_fraction) == (8000, 0.8)
            assert cfg.log_refit and cfg.exclude_rows == (98,)
            assert not hasattr(cfg, "cv_workers")       # a retired key, accepted and ignored
            run_pipeline(cfg)
            outs.append(cfg.out)
        for rel in BUNDLE_FILES:
            assert (outs[0] / rel).exists(), rel
        assert any(outs[0].glob("av_*.tsv"))
        tree_a = {str(p.relative_to(outs[0])): p.read_bytes()
                  for p in sorted(outs[0].rglob("*")) if p.is_file()}
        tree_b = {str(p.relative_to(outs[1])): p.read_bytes()
                  for p in sorted(outs[1].rglob("*")) if p.is_file()}
        assert tree_a == tree_b
        selected = json.loads((outs[0] / "selected_models.json").read_text())
        assert {"cov01", "exp05", "group"} <= set(selected["forward"])
