"""The benchmark's workloads: the `towers` CLI steps of one pass, the pool of
configurations a seed picks from, and the independent cross-checks run on
each pass's outputs.

Every configuration in a pool costs about the same, so that the seed varies
the inputs without widening the spread of the timings.  `toy` is a tiny
configuration of the same steps, used by the benchmark's own tests.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[dict], list[list[str]]]  # CLI arguments per step; files are relative to the work dir
    pool: tuple[dict, ...]
    toy: dict
    cross_check: Callable[[dict, Path], list[str]]  # problems found, empty when the outputs agree
    probe: str = "interpreter"  # the probes.PROBES kind whose drift the workload's times follow


def config_key(workload: Workload, config: dict) -> str:
    return workload.name + ":" + ",".join(f"{k}={v}" for k, v in sorted(config.items()))


def output_files(steps: list[list[str]]) -> list[str]:
    return [argv[argv.index("--out") + 1] for argv in steps]


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def _oracle_counts(sizes: str, by_pieces: bool, bound: int) -> list[int]:
    """Brute-force tower counts for 1..bound, by piece count or by area."""
    from towers.enumeration import BoundKind, EnumerationQuery, count_towers
    from towers.model import PieceSet, Shape

    pieces = PieceSet(tuple(int(s) for s in sizes.split(",")))
    kind = BoundKind.BY_PIECE_COUNT if by_pieces else BoundKind.BY_AREA
    counts = count_towers(EnumerationQuery(pieces, Shape.TOWER, kind, bound))
    return [counts[n] for n in range(1, bound + 1)]


def _prefix_problem(what: str, got: list[str], want: list[int]) -> list[str]:
    if got[: len(want)] != [str(v) for v in want]:
        return [f"{what}: {got[: len(want)]} differs from the oracle's {want}"]
    return []


# ---------------------------------------------------------------- series-deep


def _series_deep_steps(c: dict) -> list[list[str]]:
    return [["series", "--sizes", "1,2,3", "--shape", "tower", "--order", str(c["order"]),
             "--out", "m.json"]]


def _series_deep_check(c: dict, work: Path) -> list[str]:
    coeffs = _load(work / "m.json")["coeffs"]
    problems = _prefix_problem("tower series t^1..t^8", coeffs[1:], _oracle_counts("1,2,3", False, 8))
    if len(coeffs) != c["order"] + 1:
        problems.append(f"{len(coeffs)} coefficients for order {c['order']}")
    return problems


# ---------------------------------------------------------------- series-weighted


def _series_weighted_steps(c: dict) -> list[list[str]]:
    return [["series", "--sizes", c["sizes"], "--by-pieces", "--order", str(c["order"]),
             "--out", "seq.json"]]


def _series_weighted_check(c: dict, work: Path) -> list[str]:
    terms = _load(work / "seq.json")["terms"]
    return _prefix_problem("towers by piece count 1..4", terms, _oracle_counts(c["sizes"], True, 4))


# ---------------------------------------------------------------- recurrence-long


def _recurrence_long_steps(c: dict) -> list[list[str]]:
    return [
        ["series", "--sizes", "3", "--shape", "tower", "--order", str(c["order"]), "--by-pieces",
         "--out", "seq.json"],
        ["guess", "--input", "seq.json", "--out", "rec.json"],
        ["extend", "--rec", "rec.json", "--init", "seq.json", "--terms", str(c["terms"]),
         "--out", "long.json"],
        ["asympt", "--input", "long.json", "--out", "est.json"],
    ]


# Trimer towers grow like (27/4)^n; "to 12 digits" is half a unit in the
# 12th significant digit of 6.75000000000.
_TRIMER_MU = Fraction(27, 4)
_MU_TOLERANCE = Fraction(5, 10**12)


def _recurrence_long_check(c: dict, work: Path) -> list[str]:
    seq = _load(work / "seq.json")["terms"]
    problems = _prefix_problem("trimer towers by piece count 1..5", seq, _oracle_counts("3", True, 5))
    long_terms = _load(work / "long.json")["terms"]
    if len(long_terms) != c["terms"]:
        problems.append(f"extend wrote {len(long_terms)} terms, asked for {c['terms']}")
    if long_terms[: len(seq)] != seq:
        problems.append("extended sequence does not start with the series terms")
    mu = Fraction(_load(work / "est.json")["mu"])
    if abs(mu - _TRIMER_MU) > _MU_TOLERANCE:
        problems.append(f"asympt mu {float(mu)!r} is not 27/4 to 12 digits")
    return problems


# ---------------------------------------------------------------- oracle-verify


def _oracle_verify_steps(c: dict) -> list[list[str]]:
    return [["verify", "--max-area", str(c["max_area"]), "--max-pieces", str(c["max_pieces"]),
             "--out", "report.json"]]


def _oracle_verify_check(c: dict, work: Path) -> list[str]:
    report = _load(work / "report.json")
    failed = [check["name"] for check in report["checks"] if not check["passed"]]
    if report["passed"] is not True or failed:
        return [f"verify did not pass: {failed}"]
    return []


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="series-deep",
        steps=_series_deep_steps,
        pool=tuple({"order": n} for n in (1000, 996, 1004, 998, 1002)),
        toy={"order": 60},
        cross_check=_series_deep_check,
    ),
    Workload(
        name="series-weighted",
        steps=_series_weighted_steps,
        pool=tuple({"sizes": s, "order": 36} for s in ("1,2,3", "3,2,1", "2,1,3", "1,3,2", "3,1,2", "2,3,1")),
        toy={"sizes": "1,2,3", "order": 12},
        cross_check=_series_weighted_check,
    ),
    Workload(
        name="recurrence-long",
        steps=_recurrence_long_steps,
        pool=tuple({"order": 300, "terms": t} for t in (9000, 8980, 9020, 8960, 9040)),
        toy={"order": 210, "terms": 2500},
        cross_check=_recurrence_long_check,
        probe="decimal",
    ),
    Workload(
        name="oracle-verify",
        steps=_oracle_verify_steps,
        pool=tuple({"max_area": 10, "max_pieces": p} for p in (6, 5, 7, 4)),
        toy={"max_area": 5, "max_pieces": 3},
        cross_check=_oracle_verify_check,
    ),
)}
