"""The benchmark's traced layers exist in the package.

`perfbench/spans.py::LAYERS` names the functions the benchmark wraps.  A
renamed or removed one would only show in the benchmark's own, slower
suite; here it fails plain `pytest`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{function}"
        for module, (functions, _moves) in spans.LAYERS.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"towers.{module}"), function, None))
    ]
    assert missing == []
