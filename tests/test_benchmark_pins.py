"""The benchmark's per-layer metrics name functions that must keep existing.

Its tracer wraps every public function of the lqreduce modules and reports
``<module>.<function>.<stat>`` for each; a metric whose function was
deleted or made private silently stops being reported.
"""

import inspect
import json
from importlib import import_module
from pathlib import Path

from lqreduce import gen_exp1

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


# pinned layers inside `reduce`; a traced run reads 0 for one it stops calling
REDUCE_LAYERS = [
    ("classify", "poisson_brackets"),
    ("classify", "split_first_second"),
    ("constraints", "apply_feedback_to_constraints"),
    ("constraints", "strip_coisotropic"),
    ("reduction", "step"),
]


def test_reduce_still_calls_its_pinned_layers(monkeypatch):
    # like the tracer, rebind a counting wrapper under every lqreduce name
    # bound to each function, so calls through import sites are seen
    assert set(REDUCE_LAYERS) <= set(_pinned_functions())
    modules = [import_module(f"lqreduce.{name}")
               for name in ("classify", "constraints", "reduction")]
    calls = {pin: 0 for pin in REDUCE_LAYERS}
    for pin in REDUCE_LAYERS:
        original = getattr(import_module(f"lqreduce.{pin[0]}"), pin[1])

        def counting(*args, _pin=pin, _fn=original, **kwargs):
            calls[_pin] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counting)
    res = import_module("lqreduce.reduction").reduce(gen_exp1(24, 9, 6), 1e-6)
    assert res.feedback_ranks == (9, 0, 6)
    assert {pin: count for pin, count in calls.items() if count == 0} == {}
