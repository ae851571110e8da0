"""Data preparation walkthrough: typed loading, missing-data policies,
id joins, factor coercion, and design-matrix encoding.

Builds the bundled synthetic study (two predictor tables plus a response
table), then applies the same preparation the pipeline uses, printing the
audit trail as it goes.
"""

import tempfile
from pathlib import Path

from regsel import (
    coerce_to_factor,
    drop_incomplete_rows,
    drop_sparse_columns,
    encode_design,
    load_table,
    merge_by_id,
    read_schema,
)
from regsel.synth import write_dataset

with tempfile.TemporaryDirectory(prefix="regsel_demo_") as work:
    paths = write_dataset(Path(work), n=500, seed=6021)
    print(f"synthetic study written to {work}")

    covariates = load_table(paths["covariates"], read_schema(paths["covariates_schema"]))
    exposures = load_table(paths["exposures"], read_schema(paths["exposures_schema"]))
    response = load_table(paths["outcome"], read_schema(paths["outcome_schema"]))
print(f"covariates: {covariates.n_rows} rows x {len(covariates.names)} columns")
print(f"exposures:  {exposures.n_rows} rows x {len(exposures.names)} columns")

# Columns with >= 1% missing cells are dropped outright (the >= comparison
# means a single missing cell in 100 rows is already enough).
covariates = drop_sparse_columns(covariates, ratio=0.01)
exposures = drop_sparse_columns(exposures, ratio=0.01)

# Inner join on id, then attach the response the same way.
merged = merge_by_id(merge_by_id(covariates, exposures), response)

# Remaining incomplete rows go next, then the 0/1 flags become factors.
merged = drop_incomplete_rows(merged)
merged = coerce_to_factor(merged, ["flag_a", "flag_b", "flag_c"])

print("\naudit trail:")
for line in merged.audit:
    print(f"  {line}")

design = encode_design(merged)
print(f"\nencoded design: {design.n_rows} rows x {design.n_cols} columns "
      f"({len(design.terms)} terms)")
factor_terms = [t for t in design.terms if t.kind == "factor"]
print("factor terms and their indicator columns:")
for t in factor_terms:
    names = [design.column_names[c] for c in t.columns]
    print(f"  {t.name}: reference level {t.levels[0]!r}, columns {names}")
