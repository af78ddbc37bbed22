"""The names the benchmark's tracer wraps stay module attributes.

`perfbench/tracing.py` looks each hook up in its owner's `__dict__`, so a
dropped import or a renamed function would break every traced benchmark
run with a KeyError.  The file is imported, never changed.
"""

import importlib.util
from pathlib import Path

from hivecomb import _kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert missing == []
    assert "HAVE_NUMBA" in _kernels.__dict__
