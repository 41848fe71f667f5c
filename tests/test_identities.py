import json
from collections import Counter

import pytest

import towers.identities as identities
from towers.cli import main
from towers.enumeration import BoundKind
from towers.identities import ACCEPTANCE_SETS, CheckResult, verify_identities
from towers.model import PieceSet, Shape
from towers.polynomials import IntPoly
from towers.recurrences import Recurrence
from towers.series import TruncatedSeries


def test_acceptance_sets_are_the_documented_five():
    assert ACCEPTANCE_SETS == ((2,), (3,), (1, 2), (2, 3), (1, 2, 3))


@pytest.mark.slow
def test_default_run_passes():
    results = verify_identities()
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_small_scale_run_passes():
    results = verify_identities(max_area=6, max_pieces=4)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_degenerate_bound_still_passes():
    results = verify_identities(max_area=3, max_pieces=2)
    assert all(r.passed for r in results)


def test_corrupted_series_is_caught_with_counterexample(monkeypatch):
    solve = identities.series_family

    def corrupt(pieces, order, **kwargs):
        family = solve(pieces, order, **kwargs)
        if pieces == PieceSet.of(1, 2):
            coeffs = list(family[Shape.TOWER].coeffs)
            coeffs[7] += 1
            family[Shape.TOWER] = TruncatedSeries(coeffs, order)
        return family

    monkeypatch.setattr(identities, "series_family", corrupt)
    results = verify_identities(max_area=8, max_pieces=3)
    failures = {r.name: r.detail for r in results if not r.passed}
    assert failures["counts[S={1,2} all tower]"] == "area 7: enumerator 1180 != series 1181"
    # the annihilator check reads the shared series, not one of its own
    assert "t^200" in failures["annihilator[S={1,2} all tower]"]
    assert all("S={1,2}" in name for name in failures)


def test_a_held_out_term_off_the_guess_is_named(monkeypatch):
    solve = identities.series_family

    def corrupt(pieces, order, **kwargs):
        family = solve(pieces, order, **kwargs)
        if pieces == PieceSet.of(1, 2):
            coeffs = list(family[Shape.TOWER].coeffs)
            coeffs[100] += 1  # past the 60 guessed terms, inside the 200 held out
            family[Shape.TOWER] = TruncatedSeries(coeffs, order)
        return family

    monkeypatch.setattr(identities, "series_family", corrupt)
    failures = {r.name: r.detail for r in verify_identities(8, 3) if not r.passed}
    assert failures.keys() == {"guess[S={1,2} all tower]", "annihilator[S={1,2} all tower]"}
    assert failures["guess[S={1,2} all tower]"] == "extension diverges from the series at n=100"


def test_a_check_passes_iff_it_names_no_counterexample():
    assert CheckResult("x").passed
    assert not CheckResult("x", "d").passed


def test_each_set_is_solved_once_and_each_shape_enumerated_once(monkeypatch):
    solves, weighings, walks = Counter(), Counter(), Counter()
    solve, weigh = identities.series_family, identities.weighted_series

    def counted_solve(pieces, order, **kwargs):
        solves[pieces] += 1
        return solve(pieces, order, **kwargs)

    def counted_weigh(pieces, order, shape):
        weighings[pieces, shape] += 1
        return weigh(pieces, order, shape)

    def counted_walk(walk):
        def counted(query):
            if query.bound_kind is BoundKind.BY_AREA:
                walks[query.pieces, query.shape] += 1
            return walk(query)

        return counted

    monkeypatch.setattr(identities, "series_family", counted_solve)
    monkeypatch.setattr(identities, "weighted_series", counted_weigh)
    for name in ("weight_polynomial", "count_towers"):
        monkeypatch.setattr(identities, name, counted_walk(getattr(identities, name)))
    assert all(r.passed for r in verify_identities(max_area=6, max_pieces=4))
    assert solves and max(solves.values()) == 1
    assert weighings and max(weighings.values()) == 1
    assert {p for p, _ in weighings} <= set(solves)
    assert walks and max(walks.values()) == 1


@pytest.fixture
def guesses_singular_at_100(monkeypatch):
    """Every guessed recurrence times (n - 100): it still annihilates all 260 terms, but
    unrolling from the 60 guessed terms stops at n = 100, where p_r vanishes."""
    guess = identities.guess_recurrence

    def times_n_minus_100(*args, **kwargs):
        rec = guess(*args, **kwargs)
        return Recurrence(tuple(p * IntPoly((-100, 1)) for p in rec.coeff_polys))

    monkeypatch.setattr(identities, "guess_recurrence", times_n_minus_100)


SINGULAR_DETAIL = "extension stops: leading coefficient vanishes at n=100"


def test_a_guess_singular_in_the_held_out_range_fails_its_check(guesses_singular_at_100):
    failures = {r.name: r.detail for r in verify_identities(6, 3) if not r.passed}
    assert len(failures) == 18
    assert all(name.startswith("guess[") for name in failures)
    assert set(failures.values()) == {SINGULAR_DETAIL}


def test_verify_reports_a_singular_guess_and_exits_5(guesses_singular_at_100, tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "--max-area", "6", "--max-pieces", "3", "--out", str(path)]) == 5
    report = json.loads(path.read_text())
    assert report["passed"] is False
    failed = {c["name"]: c["detail"] for c in report["checks"] if not c["passed"]}
    assert failed["guess[S={1,2,3} all tower]"] == SINGULAR_DETAIL
