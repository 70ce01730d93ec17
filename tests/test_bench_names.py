"""The names the benchmark's traced run patches still exist.

`bench/spans.py` wraps functions by (module, attribute) and every detector
of `risklab.DETECTORS` by key, so a refactor that renames or drops one of
them would otherwise show only when the traced census runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from plantedlab import risklab

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the standard library only, at import time
    return module


def test_every_wrapped_name_is_a_callable_of_its_module(monkeypatch):
    wrapped = load_spans(monkeypatch).WRAPPED
    assert wrapped
    for module, attribute, _ in wrapped:
        target = importlib.import_module(f"plantedlab.{module}")
        assert callable(getattr(target, attribute, None)), f"{module}.{attribute}"


def test_detector_keys_are_unchanged():
    assert set(risklab.DETECTORS) == {"count", "degree", "scan", "lrt"}
