"""The benchmark tracer looks its functions up by name; keep every name present.

``perfbench/spans.py`` wraps each ``(module, function)`` pair in ``TRACED``
with ``getattr(weaksep.<module>, function)``.  A rename under ``src/`` would
otherwise only break traced benchmark runs.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_exists_in_its_module():
    traced = _traced()
    assert traced
    for module_name, func, _ in traced:
        module = importlib.import_module("weaksep." + module_name)
        assert callable(getattr(module, func, None)), f"weaksep.{module_name}.{func}"
        assert getattr(module, func).__module__ == "weaksep." + module_name, func
