"""The package namespace: each module's ``__all__`` is the one list of its
public names, and ``regsel`` re-exports those lists in import order."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import regsel

MODULES = ("table", "ols", "influence", "stepwise", "crossval", "pipeline", "report")


def test_package_all_is_the_modules_all_lists_in_order():
    lists = [importlib.import_module(f"regsel.{name}").__all__ for name in MODULES]
    assert regsel.__all__ == [name for names in lists for name in names]


def test_no_name_is_exported_by_two_modules():
    assert len(set(regsel.__all__)) == len(regsel.__all__)


def test_every_exported_name_is_its_module_object():
    for module in MODULES:
        module = importlib.import_module(f"regsel.{module}")
        for name in module.__all__:
            assert getattr(regsel, name) is getattr(module, name), name
    from regsel import read_config
    assert read_config is regsel.pipeline.read_config


def test_importing_regsel_loads_no_process_machinery():
    # multiprocessing is imported only by a cross-validation call that forks
    code = "import sys, regsel, regsel.cli; sys.exit('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
