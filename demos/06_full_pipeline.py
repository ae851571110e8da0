"""The whole workflow in one call: prep -> prune -> select -> diagnose ->
cv -> report, driven by a plain key=value config file.

Uses a reduced replication count so the demo finishes in seconds; drop the
cv_replications line to run the full 8000-replication protocol.  The same
run is available from the shell as ``regsel all --config demo.cfg``.
"""

import tempfile
from pathlib import Path

from regsel import run_pipeline
from regsel.pipeline import read_config
from regsel.synth import write_dataset

with tempfile.TemporaryDirectory(prefix="regsel_demo_") as tmp:
    work = Path(tmp)
    write_dataset(work, n=400, seed=6021)

    config_path = work / "demo.cfg"
    config_path.write_text("""\
table_a = covariates.csv
schema_a = covariates.schema
table_b = exposures.csv
schema_b = exposures.schema
response_table = outcome.csv
response_schema = outcome.schema
factor_columns = flag_a,flag_b,flag_c
exclude_rows = 42            # rerun selection/diagnostics/CV without this row
cv_replications = 300        # demo size; the reference protocol uses 8000
out_dir = out
""")

    cfg = read_config(config_path)
    bundle = run_pipeline(cfg)

    print(f"pipeline finished; outputs under {cfg.out}\n")
    for stage, files in bundle.items():
        print(f"{stage:9s} {len(files)} file(s)")
        for path in files[:4]:
            print(f"          {path.name}")
        if len(files) > 4:
            print(f"          ... and {len(files) - 4} more")

    print("\nfinal model report (head):")
    report = (cfg.out / "model_report.txt").read_text().splitlines()
    print("\n".join(report[:12]))
