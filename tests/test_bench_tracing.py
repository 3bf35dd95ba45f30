"""The benchmark's trace harness wraps names in contact_mf: each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # tracing.install does getattr on each of these; a missing one kills --trace 1
    names = [(module, attr) for module, attr, _, _ in _load_tracing().TARGETS]
    names.append(("cli", "_survival_cell"))
    missing = []
    for module_name, attr in names:
        holder = importlib.import_module(f"contact_mf.{module_name}")
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not callable(holder):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
