"""Every name in a package module's ``__all__`` must exist, every name
a module imports must be used or exported, and the driver configs and
public functions have exactly the fields and parameters listed here."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import adacur
from adacur.driver import AdaCurConfig
from adacur.fast import FastConfig

MODULES = ["adacur"] + [f"adacur.{info.name}"
                        for info in pkgutil.iter_modules(adacur.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name} repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ lists missing names {missing}"


# Imported names no code uses, kept only because bench/tracing.py
# installs its wrappers on them; deleting the tracer deletes this list.
TRACER_ONLY_IMPORTS = {
    "adacur.fast": {"oversample_rows", "oversample_rows_multi", "srrqr"},
    "adacur.normest": {"stable_cur_eval"},
    "adacur.pivoting": {"cpqr"},
}


def unused_imports(module):
    """Names ``module`` imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used - set(getattr(module, "__all__", ()))


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    got = unused_imports(importlib.import_module(name))
    assert got == TRACER_ONLY_IMPORTS.get(name, set())


# Each config field is an option every caller can set; a new one has
# to be added here, so that it is argued for in review.
CONFIG_FIELDS = {
    AdaCurConfig: ("tol", "err_samples", "oversample", "seed", "true_error",
                   "store_factors"),
    FastConfig: ("tol", "buffer", "oversample", "seed", "store_factors"),
}


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields_pinned(config):
    got = tuple(field.name for field in dataclasses.fields(config))
    assert got == CONFIG_FIELDS[config]


# Each parameter of a public function is an option every caller can
# pass; a new one has to be added here, so that it is argued for in
# review, as a config field is.
PUBLIC_PARAMETERS = {
    "adacur_run": ("seq", "cfg"),
    "recompute_baseline_run": ("seq", "cfg"),
    "refine_indices": ("oracle", "sel", "pack", "cfg"),
    "fastadacur_run": ("seq", "cfg"),
    "load_sequence_dir": ("path",),
    "read_matrix_market": ("path",),
    "read_trace_csv": ("path",),
    "write_matrix_market": ("path", "a"),
    "write_trace_csv": ("traces", "path"),
    "cpqr": ("a",),
    "eps_rank_from_rdiag": ("r", "rel_tol"),
    "srrqr": ("a", "f", "k", "rank_tol"),
    "stable_cur_eval": ("c", "u", "r"),
    "estimate_cur_error": ("oracle", "cols", "r", "s", "seed", "reuse"),
    "oversample_rows": ("row_id", "rows", "p"),
    "rand_pivot": ("oracle", "r", "seed"),
    "rand_pivot_rankest": ("oracle", "abs_tol", "seed"),
    "make_adversarial": ("seed", "q"),
    "make_schrodinger": ("n", "q", "seed", "t_end", "zero_potential"),
    "make_speed_problem": ("m", "n", "r", "q", "seed", "delta", "density"),
    "make_synthetic_expm": ("n", "q", "seed"),
    "synthetic_expm_singvals": ("n", "t"),
    "true_relative_error": ("oracle", "approx"),
    "estimate_rank": ("oracle", "abs_tol", "seed"),
    "derive_seed": ("parts",),
}


def test_public_parameters_pinned():
    got = {name: tuple(inspect.signature(obj).parameters)
           for name in adacur.__all__
           if inspect.isfunction(obj := getattr(adacur, name))}
    assert got == PUBLIC_PARAMETERS
