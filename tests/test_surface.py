"""The names the package exports, and the entry points the benchmark's
tracer wraps, all resolve."""

import importlib
import importlib.util
import pathlib
import pkgutil

import besselops

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_public_names_and_traced_entry_points_exist():
    modules = {
        info.name: importlib.import_module(f"besselops.{info.name}")
        for info in pkgutil.iter_modules(besselops.__path__)
    }
    exported = [(name, attr) for name, mod in modules.items() for attr in getattr(mod, "__all__", ())]
    assert exported
    assert [(name, attr) for name, attr in exported if not hasattr(modules[name], attr)] == []

    # A deleted entry point would otherwise fail only a traced benchmark run.
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = [(name, fn) for name, fn, *_ in spans.ENTRY_POINTS]
    assert traced
    assert [(name, fn) for name, fn in traced if not hasattr(modules.get(name), fn)] == []
