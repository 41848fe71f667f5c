"""Benchmark of the `towers` CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is taken from `src/` next to this directory.  Each pass runs the
workload's CLI steps one after another, each as a fresh `python -m towers.cli`
process, because a CLI user pays start-up on every command.  Passes repeat
for S seconds and every pass is checked, outside the timed region: the bytes
of each output against the digest recorded in expected.json, and the outputs
against an independent route (see workloads.py).

--trace 0 prints the end-to-end metrics: setup_s, the median wall time of a
fresh `towers --help`; wall_s and cpu_s (the steps' own rusage) of a pass,
each the sum over its steps of the step's median; and peak_rss_mb, the median
over passes of the largest ru_maxrss of one step.  `attempted` is the sample
count (passes).

--trace 1 alternates untraced passes with traced ones, in which each step runs
`towers.cli.main` in-process under the span wrappers of spans.py, and prints
the per-layer metrics plus the tracing overhead.  Layer shares of the traced
time go to stderr.

Times are reported in reference seconds (see probes.py); the raw medians go
to stderr.  The last line of stdout is one JSON object with the
keys correct, attempted and failed (passes) and metrics.  The exit code is 0
only when every pass was correct.  Work files (~34 MB per recurrence-long
pass) live in a temporary directory inside the checkout, removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS = HERE / "spans.py"
LAUNCH = HERE / "launch.py"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))  # the cross-checks call the package's brute-force oracle
import probes  # noqa: E402
from spans import LAYERS, per_layer_metrics, summarize  # noqa: E402
from workloads import WORKLOADS, Workload, config_key, output_files  # noqa: E402

STEP_TIMEOUT_S = 120.0  # a hung step fails its pass; the run still ends within 180 s
SETUP_PROBE = "interpreter"  # start-up is imports and unmarshalling: interpreter work



@dataclass
class Step:
    wall_s: float  # raw seconds
    cpu_s: float
    rss_mb: float
    code: int
    # probe kind -> reference seconds per raw second while the step ran
    scales: dict[str, float] = field(default_factory=dict)


@dataclass
class Pass:
    steps: list[Step]
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)  # raw, from a traced pass

    @property
    def raw_wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    def scale(self, kind: str) -> float:
        return sum(s.wall_s * s.scales[kind] for s in self.steps) / self.raw_wall_s

    @property
    def peak_rss_mb(self) -> float:
        return max(s.rss_mb for s in self.steps)


def cli_env() -> dict[str, str]:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


class Meter:
    """Runs measured processes and scales their times by the probes on either side."""

    def __init__(self, cwd: Path, env: dict[str, str], kinds: set[str]) -> None:
        self.cwd = cwd
        self.env = env
        self.kinds = kinds
        self._probe = probes.measure(kinds)

    def run(self, cmd: list[str]) -> Step:
        # launch.py measures the process; see there why it stands in between
        out = subprocess.run(
            [sys.executable, str(LAUNCH), str(STEP_TIMEOUT_S), *cmd],
            cwd=self.cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True,
        )
        step = Step(**json.loads(out.stdout))
        after = probes.measure(self.kinds)
        step.scales = {k: 2 * probes.REFERENCE_S / (self._probe[k] + after[k]) for k in after}
        self._probe = after
        return step


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload: Workload, config: dict, work: Path, digests: dict[str, str]) -> list[str]:
    """Problems with one pass's outputs: digest mismatches and cross-check failures."""
    problems = []
    for name in output_files(workload.steps(config)):
        path = work / name
        if not path.is_file():
            problems.append(f"{name} was not written")
        elif digest(path) != digests[name]:
            problems.append(f"{name} differs from its recorded digest")
    try:
        problems += workload.cross_check(config, work)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"cross-check could not read the outputs: {type(exc).__name__}: {exc}")
    return problems


def run_steps(steps: list[list[str]], meter: Meter, traced: bool) -> tuple[list[Step], list[str]]:
    """Run a pass's steps in the meter's cleared work dir; stops at the first failing step."""
    for entry in meter.cwd.iterdir():
        entry.unlink()
    done: list[Step] = []
    for index, argv in enumerate(steps):
        if traced:
            cmd = [sys.executable, str(SPANS), f"spans{index}.json", *argv]
        else:
            cmd = [sys.executable, "-m", "towers.cli", *argv]
        step = meter.run(cmd)
        done.append(step)
        if step.code != 0:
            return done, [f"step {index} ({argv[0]}) exited with {step.code}"]
    return done, []


def run_pass(workload: Workload, config: dict, meter: Meter, digests: dict[str, str], traced: bool) -> Pass:
    steps = workload.steps(config)
    done, problems = run_steps(steps, meter, traced)
    if problems:
        return Pass(done, problems)
    result = Pass(done, check_outputs(workload, config, meter.cwd, digests))
    if traced:
        result.layers = summarize([meter.cwd / f"spans{i}.json" for i in range(len(steps))])
    return result


def measure_setup(meter: Meter) -> Step:
    """A fresh `towers --help` process."""
    step = meter.run([sys.executable, "-m", "towers.cli", "--help"])
    if step.code != 0:
        raise RuntimeError(f"`towers --help` exited with {step.code}")
    return step


@dataclass
class Run:
    setup: list[Step] = field(default_factory=list)
    untraced: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return statistics.median([s.wall_s * s.scales[SETUP_PROBE] for s in self.setup])


def measure(workload: Workload, config: dict, digests: dict[str, str], seconds: float, trace: bool) -> Run:
    """Setup samples and passes, repeated until the next round would end after `seconds`."""
    run = Run()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        meter = Meter(Path(tmp), cli_env(), {SETUP_PROBE, workload.probe})
        measure_setup(meter)  # warm-up: byte-compiles the package in a fresh checkout
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            # one setup sample before each pass, so that it sees the host as the pass does
            run.setup.append(measure_setup(meter))
            run.untraced.append(run_pass(workload, config, meter, digests, traced=False))
            if trace:
                run.traced.append(run_pass(workload, config, meter, digests, traced=True))
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                return run


def usable(passes: list[Pass]) -> list[Pass]:
    """The passes that metrics are taken from: the correct ones, or all if none is."""
    return [p for p in passes if not p.problems] or passes


def step_medians(passes: list[Pass], value: Callable[[Step], float]) -> float:
    """Sum over a pass's steps of each step's median over the passes.

    With few passes per run (recurrence-long fits two or three) this is steadier
    than the median of the pass totals, and it estimates the same typical pass.
    """
    return sum(statistics.median(map(value, column)) for column in zip(*(p.steps for p in passes)))


def end_to_end(run: Run, kind: str) -> dict[str, tuple[float, str]]:
    passes = usable(run.untraced)
    return {
        "setup_s": (run.setup_s, "s"),
        "wall_s": (step_medians(passes, lambda s: s.wall_s * s.scales[kind]), "s"),
        "cpu_s": (step_medians(passes, lambda s: s.cpu_s * s.scales[kind]), "s"),
        "peak_rss_mb": (statistics.median([p.peak_rss_mb for p in passes]), "MB"),
    }


def per_layer(run: Run, kind: str) -> dict[str, tuple[float, str]]:
    units = per_layer_metrics()
    exponent = {"s": 1, "1/s": -1}

    def scaled(p: Pass, name: str) -> float:
        return p.layers[name] * p.scale(kind) ** exponent.get(units[name], 0)

    traced = [p for p in run.traced if p.layers]
    values = {name: statistics.median([scaled(p, name) for p in traced]) for name in traced[0].layers}
    values["trace.traced_main_s"] = values["cli.main.total_s"]
    values["trace.untraced_main_s"] = step_medians(
        usable(run.untraced), lambda s: s.wall_s * s.scales[kind] - run.setup_s
    )
    values["trace.overhead_frac"] = values["trace.traced_main_s"] / values["trace.untraced_main_s"] - 1
    return {name: (values[name], unit) for name, unit in units.items()}


def report_attribution(metrics: dict[str, tuple[float, str]]) -> None:
    self_s = {
        module: sum(metrics[f"{module}.{fn}.self_s"][0] for fn in functions)
        for module, (functions, _moves) in LAYERS.items()
    }
    total = sum(self_s.values()) or 1.0
    shares = {module: value / total for module, value in self_s.items()}
    print("share of traced self time: " + ", ".join(
        f"{module} {share:.1%}" for module, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="picks the configuration from the workload's pool")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny configuration, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "towers" / "cli.py").is_file():
        print(f"error: no towers package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = workload.toy if args.toy else workload.pool[args.seed % len(workload.pool)]
    digests = json.loads(EXPECTED.read_text(encoding="utf-8"))[config_key(workload, config)]
    run = measure(workload, config, digests, args.seconds, bool(args.trace))

    passes = run.untraced + run.traced
    bad = [p for p in passes if p.problems]
    for p in bad:
        print(f"FAILED pass: {'; '.join(p.problems)}", file=sys.stderr)
    if not args.trace:
        metrics = end_to_end(run, workload.probe)
    elif any(p.layers for p in run.traced):
        metrics = per_layer(run, workload.probe)
        report_attribution(metrics)
    else:
        metrics = {}
    print(f"{config_key(workload, config)}: {len(run.untraced)} untraced passes, "
          f"raw wall_s {statistics.median([p.raw_wall_s for p in run.untraced])!r}, "
          f"raw setup_s {statistics.median([s.wall_s for s in run.setup])!r}, "
          f"scales {[round(p.scale(workload.probe), 3) for p in run.untraced]}, "
          f"failed_frac {len(bad) / len(passes):.3f}", file=sys.stderr)
    correct = not bad and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(passes),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
