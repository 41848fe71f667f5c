"""Span tracing of one `towers` CLI step, installed from outside the package.

Run as a script, `python perfbench/spans.py SPANS_JSON CLI_ARG...` wraps the
layer functions in LAYERS at every name through which the towers modules
(cli, identities, algebra, ...) call them, runs `towers.cli.main(argv)` in
this process, keeps the spans in memory and writes them, with the layer
counters, to SPANS_JSON once main returns.  It exits with main's code.

`summarize` turns the span files of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# module of src/towers -> (functions wrapped, the end-to-end metric they
# should move and the workload where that shows).  gallery is on no hot path
# and is left out.
LAYERS: dict[str, tuple[tuple[str, ...], str]] = {
    "cli": (("main",),
            "wall_s on every workload, most on recurrence-long (argparse, file I/O, json parse)"),
    "series": (("solve_half_pyramids", "series_pyramids", "series_towers",
                "coefficients_by_pieces", "piece_count_sequence", "half_pyramid_rhs"),
               "wall_s on series-deep and series-weighted; near zero on recurrence-long"),
    "enumeration": (("count_towers", "weight_polynomial"),
                    "wall_s on oracle-verify; absent elsewhere"),
    "algebra": (("annihilating_polynomial", "verify_annihilator"),
                "wall_s on oracle-verify; its sympy import shows in setup_s everywhere"),
    "recurrences": (("guess_recurrence", "verify_recurrence", "extend_sequence"),
                    "wall_s on recurrence-long (extend) and oracle-verify (guess)"),
    "asymptotics": (("estimate_asymptotics",), "wall_s on recurrence-long"),
    "jsonio": (("series_to_json", "sequence_to_json", "sequence_from_json",
                "recurrence_to_json", "recurrence_from_json", "estimate_to_json",
                "report_to_json", "dumps"),
               "wall_s and peak_rss_mb on recurrence-long; near zero on series-deep"),
    "identities": (("verify_identities",), "wall_s on oracle-verify"),
}

# counter name -> (unit, how the steps of a pass combine it: "sum" or "max")
COUNTERS: dict[str, tuple[str, str]] = {
    "series.coeff_max_bits": ("bits", "max"),
    "zpoly.monomials": ("count", "sum"),
    "enumeration.towers": ("count", "sum"),
    "recurrences.terms_out": ("count", "sum"),
    "recurrences.term_max_bits": ("bits", "max"),
    "jsonio.bytes_out": ("bytes", "sum"),
    "jsonio.bytes_in": ("bytes", "sum"),
}

# Span name under which the tracer's own counting runs, so that counting is
# not charged to any layer's self time.
COUNTING = "trace.counting"


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names: dict[str, str] = {}
    for module, (functions, _moves) in LAYERS.items():
        for function in functions:
            stem = f"{module}.{function}"
            names.update({f"{stem}.calls": "count", f"{stem}.total_s": "s", f"{stem}.self_s": "s"})
    names.update({name: unit for name, (unit, _how) in COUNTERS.items()})
    names["enumeration.towers_per_s"] = "1/s"
    names.update({
        "trace.traced_main_s": "s",
        "trace.untraced_main_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return names


# ---------------------------------------------------------------- recording


class Recorder:
    """Spans as [name, parent index, start, end], plus layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0])
        self._stack.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function, count=None):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                counting = self._open(COUNTING)
                try:
                    count(self, result)
                finally:
                    self._close(counting)
            return result

        return traced

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def high(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


def _count_series(rec: Recorder, result) -> None:
    coeffs = getattr(result, "coeffs", result)
    bits = 0
    for c in coeffs:
        if isinstance(c, int):
            bits = max(bits, abs(c).bit_length())
        else:
            rec.add("zpoly.monomials", len(c))
            for _exps, value in c.items():
                bits = max(bits, abs(value).bit_length())
    rec.high("series.coeff_max_bits", bits)


def _count_towers(rec: Recorder, result) -> None:
    rec.add("enumeration.towers", sum(
        v if isinstance(v, int) else v.eval_ones() for v in result.values()
    ))


def _count_terms(rec: Recorder, result) -> None:
    rec.add("recurrences.terms_out", len(result.terms))
    rec.high("recurrences.term_max_bits", max(abs(t).bit_length() for t in result.terms))


_COUNTS = {
    "series": _count_series,
    "enumeration": _count_towers,
    "recurrences.extend_sequence": _count_terms,
}


def install(rec: Recorder) -> None:
    """Replace each layer function by a traced one under every towers name bound to it."""
    importlib.import_module("towers.cli")
    towers_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "towers"]
    for module_name, (functions, _moves) in LAYERS.items():
        module = importlib.import_module(f"towers.{module_name}")
        for function in functions:
            name = f"{module_name}.{function}"
            original = getattr(module, function)
            count = _COUNTS.get(name, _COUNTS.get(module_name))
            traced = rec.wrap(name, original, count)
            for m in towers_modules:
                if getattr(m, function, None) is original:
                    setattr(m, function, traced)


# ---------------------------------------------------------------- summarizing


def summarize(span_files: list[Path]) -> dict[str, float]:
    """Per-layer calls, total and self time, and counters over one pass's steps."""
    out: dict[str, float] = {}
    for module, (functions, _moves) in LAYERS.items():
        for function in functions:
            for field in ("calls", "total_s", "self_s"):
                out[f"{module}.{function}.{field}"] = 0
    for name in COUNTERS:
        out[name] = 0
    for path in span_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _parent, start, end), covered in zip(spans, child_time):
            if name == COUNTING:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        for name, value in data["counters"].items():
            out[name] = max(out[name], value) if COUNTERS[name][1] == "max" else out[name] + value
    enum_s = out["enumeration.count_towers.total_s"] + out["enumeration.weight_polynomial.total_s"]
    out["enumeration.towers_per_s"] = out["enumeration.towers"] / enum_s if enum_s else 0.0
    return out


def _file_bytes(cli_argv: list[str], flags: tuple[str, ...]) -> int:
    return sum(
        Path(value).stat().st_size
        for flag, value in zip(cli_argv, cli_argv[1:])
        if flag in flags and value != "-" and Path(value).is_file()
    )


def main(argv: list[str]) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    rec = Recorder()
    install(rec)
    cli = importlib.import_module("towers.cli")
    code = cli.main(cli_argv)
    rec.add("jsonio.bytes_in", _file_bytes(cli_argv, ("--input", "--rec", "--init")))
    rec.add("jsonio.bytes_out", _file_bytes(cli_argv, ("--out",)))
    spans_path.write_text(json.dumps({"spans": rec.spans, "counters": rec.counters}), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
