"""The package's layers: what the benchmark traces exists, and records load no solver.

`perfbench/spans.py::LAYERS` names the functions the benchmark wraps.  A
renamed or removed one would only show in the benchmark's own, slower
suite; here it fails plain `pytest`.  The records a sequence file holds
live in `model`, so reading and writing one runs no solving layer.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_sequence_files_read_and_write_without_the_solvers():
    # a module served lazily that never ran is of a subclass of ModuleType,
    # so only exact ModuleTypes have run
    probe = (
        "import io, json, sys, types\n"
        "from towers import jsonio\n"
        "seq = jsonio.sequence_from_json({'offset': 1, 'terms': ['1', '2', '5'], 'label': 's'})\n"
        "text = jsonio.dumps(jsonio.sequence_to_json(seq))\n"
        "handle = io.TextIOWrapper(io.BytesIO(text.encode()), encoding='utf-8')\n"
        "tail = jsonio.sequence_tail(handle, 2)\n"
        "assert (tail.offset, tail.terms, tail.label) == (2, (2, 5), 's'), tail\n"
        "ran = [m for m, module in sys.modules.items()\n"
        "       if m.startswith('towers.') and type(module) is types.ModuleType]\n"
        "print(json.dumps(ran))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    ran = {name.split(".")[1] for name in json.loads(result.stdout)}
    assert {"jsonio", "model"} <= ran
    assert not ran & {"recurrences", "polynomials", "series", "algebra"}
