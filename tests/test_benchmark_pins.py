"""The benchmark's per-layer metrics name functions that must keep existing.

Its tracer wraps every public function of the lqreduce modules and reports
``<module>.<function>.<stat>`` for each; a metric whose function was
deleted or made private silently stops being reported.
"""

import inspect
import json
from importlib import import_module
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _pinned_functions():
    names = [entry["name"] for entry in json.loads(SPEC.read_text())["per_layer"]]
    pins = {tuple(name.split(".")[:2]) for name in names if name.count(".") == 2}
    # linalg.svd is numpy.linalg.svd, wrapped by the tracer itself
    pins.discard(("linalg", "svd"))
    return sorted(pins)


def test_pinned_functions_are_public_functions_of_their_module():
    pins = _pinned_functions()
    assert ("reduction", "step") in pins
    missing = []
    for module_name, function in pins:
        module = import_module(f"lqreduce.{module_name}")
        obj = getattr(module, function, None)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not function.startswith("_")):
            missing.append(f"{module_name}.{function}")
    assert missing == []
