"""Every function the benchmark's tracer wraps exists where the tracer looks for it.

The tracer replaces each target by name in its owner's `__dict__`, so a
target that was renamed or moved breaks the traced benchmark run. The
tracer module imports NumPy only inside `write`, so it loads here without it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attr, _, _ in tracer.TARGETS:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = vars(obj)[cls]
        assert attr in vars(obj), f"{owner} has no {attr}"
