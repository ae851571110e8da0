"""Seeded Monte Carlo cross-validation: shared splits across candidate
models, five-number summaries, and boxplot data with outlier fences.

Every replication draws one 80% training split from a counter-based
stream keyed by (seed, replication), so the MSPE vectors are bitwise
reproducible.  Each candidate is factored once on the full data; its
held-out errors in every replication follow from the deletion identity,
without refitting the training rows.
"""

import tempfile
from pathlib import Path

import numpy as np

from regsel import CVConfig, DesignMatrix, emit_mspe_boxplot_data, mc_cross_validate

rng = np.random.default_rng(23)
n = 400
X = rng.standard_normal((n, 12))
y = 3.0 + 1.5 * X[:, 0] - 2.0 * X[:, 3] + 1.0 * X[:, 7] + rng.standard_normal(n)
design = DesignMatrix.from_arrays(X, y)

true_terms = ("x1", "x4", "x8")
config = CVConfig.for_models(
    {
        "true": true_terms,
        "overfit": design.term_names,          # all twelve predictors
        "underfit": ("x1",),
    },
    replications=2000, train_fraction=0.8, seed=20883271,
)
result = mc_cross_validate(design, config)

print("model      " + "".join(f"{k:>12}" for k in ("min", "q1", "median", "mean", "q3", "max", "IQR")))
for label, summary in result.summaries().items():
    row = (*summary.as_tuple(), summary.iqr)
    print(f"{label:10s} " + "".join(f"{v:12.4f}" for v in row))

rerun = mc_cross_validate(design, config)
print("\nsame seed, second run is bitwise identical:",
      np.array_equal(result.mspe, rerun.mspe))

with tempfile.TemporaryDirectory(prefix="regsel_demo_") as out:
    for path in emit_mspe_boxplot_data(result, Path(out)):
        print(f"boxplot data written: {path}")
