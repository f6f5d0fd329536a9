"""What the benchmark's span tracer (`perfbench/spans.py`) assumes of the
package: the names it wraps exist, and its halving counter matches the
recursions.  The module is read, never installed."""

import importlib
import importlib.util
from pathlib import Path

import monsterlie.replication
from monsterlie.dataset import trivial_dataset

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = _spans()
    for metric, module, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), metric
    for metric, module, cls_name, methods, _ in spans.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            assert callable(getattr(cls, method)), f"{metric}: {method}"


def test_halving_counter_matches_the_recursions(monkeypatch):
    calls = []
    original = monsterlie.replication._halve

    def counting(numerator, name, j):
        calls.append(j)
        return original(numerator, name, j)

    monkeypatch.setattr(monsterlie.replication, "_halve", counting)
    monsterlie.replication.replicate_extend(trivial_dataset(), 40)
    halvings = _spans()._HALVINGS
    assert len(calls) == sum(halvings[n % 4] for n in [4, *range(6, 41)])
