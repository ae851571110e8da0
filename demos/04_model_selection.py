"""Greedy model selection three ways: forward, backward, and
both-direction stepwise search under the search AIC, followed by the
cross-model comparison table.

The response depends on three of the ten candidate terms; watch each
search converge and compare what the three final models look like.
"""

import numpy as np

from regsel import DesignMatrix, Scope, compare_models, fit_ols, step_select_modes

rng = np.random.default_rng(11)
n = 200
X = rng.standard_normal((n, 10))
y = 2.0 + 1.2 * X[:, 1] - 1.8 * X[:, 4] + 0.9 * X[:, 8] + rng.standard_normal(n)
design = DesignMatrix.from_arrays(X, y, response_name="outcome")

scope = Scope(k=2.0)      # intercept-only lower model, every term in the upper model
# the three searches run in lockstep and share the models they have in common
traces = step_select_modes(design, scope, ("forward", "backward", "both"))
for mode, trace in traces.items():
    print(f"== {mode} (start: {len(trace.start)} terms) ==")
    for mv in trace.moves:
        print(f"  {mv.direction:6s} {mv.term:4s}   AIC {mv.aic_before:9.3f} -> {mv.aic_after:9.3f}")
    print(f"  final: {trace.formula()}\n")

table = compare_models([traces[m].final for m in ("forward", "backward", "both")],
                       labels=("forward", "backward", "both"))
print(table.render())

# a model fitted on different rows is not comparable and is rejected
try:
    compare_models([traces["forward"].final, fit_ols(design.take_rows(np.arange(150)))])
except ValueError as exc:
    print(f"as expected: {exc}")
