import argparse
import errno
import hashlib
import io
import itertools
import json
import math
import os
import resource
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from towers import cli, identities, jsonio, series
from towers.algebra import BivariatePolynomial, annihilating_polynomial, verify_annihilator
from towers.cli import main
from towers.enumeration import BoundKind, EnumerationQuery, count_towers
from towers.identities import ACCEPTANCE_SETS, CheckResult
from towers.model import PieceSet, Rule, Shape
from towers.polynomials import IntPoly
from towers.recurrences import Recurrence, Sequence, derive_recurrence, extend_sequence, sequence_from_series
from towers.series import coefficients_by_pieces, piece_count_sequence, series_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_guess_help_names_the_default_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["guess", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal's width
    assert "--max-order MAX_ORDER largest order (default: 5)" in out
    assert "--max-degree MAX_DEGREE largest degree (default: 6)" in out
    assert "--guard GUARD held-out terms (default: 10)" in out


def test_every_option_with_a_default_names_it():
    """`--help` names every default but None, False (a flag left off) and -h's SUPPRESS."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unnamed = [
        f"{command} {action.option_strings[0]}"
        for command, parser in sub.choices.items() for action in parser._actions
        if action.default not in (None, False, argparse.SUPPRESS)
        and f"(default: {action.default})" not in (action.help or "")
    ]
    assert unnamed == []


def test_series_by_pieces_noalign(capsys):
    code, out, _ = run(
        capsys, "series", "--sizes", "2", "--rule", "noalign", "--shape", "tower",
        "--order", "20", "--by-pieces",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"offset": 1, "terms": ["1", "3", "9", "27", "81", "243",
                                              "729", "2187", "6561", "19683"]}


def test_series_plain_json(capsys):
    code, out, _ = run(capsys, "series", "--sizes", "1", "--order", "5")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "1", "2", "4", "8", "16"]


def test_series_by_pieces_multi_size_uses_markers(capsys):
    # counts by piece count come from the piece-variable series, not z-markers
    code, out, _ = run(
        capsys, "series", "--sizes", "1,2", "--order", "8", "--by-pieces",
    )
    assert code == 0
    assert json.loads(out)["terms"] == ["2", "12", "74", "456"]


def _limit_memory():
    # a regression that builds the marker series again fails fast instead of
    # taking the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_series_by_pieces_at_default_flags_finishes():
    # multi-size sets at the default --order 200: 200 // max size terms each
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    expected = {
        "1,2,3": ["3", "36", "459", "5940", "77463", "1015254"],
        "1,2,3,4,5": ["5", "150", "5000", "172500"],
    }
    for sizes, head in expected.items():
        argv = [sys.executable, "-m", "towers.cli", "series", "--sizes", sizes, "--by-pieces"]
        result = subprocess.run(
            argv, env=env, timeout=60, capture_output=True, preexec_fn=_limit_memory
        )
        assert result.returncode == 0, result.stderr
        terms = json.loads(result.stdout)["terms"]
        pieces = PieceSet(tuple(map(int, sizes.split(","))))
        assert len(terms) == 200 // pieces.max_size
        counts = count_towers(
            EnumerationQuery(pieces, bound_kind=BoundKind.BY_PIECE_COUNT, bound=len(head))
        )
        assert terms[: len(head)] == [str(counts[n]) for n in range(1, len(head) + 1)] == head


def test_series_weighted_noalign_exits_2(capsys):
    code, _, err = run(
        capsys, "series", "--sizes", "2", "--rule", "noalign", "--weighted", "--order", "5",
    )
    assert code == 2
    assert "no-exact-alignment" in err


def test_enumerate_counts(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--sizes", "2", "--rule", "all", "--shape", "tower",
        "--pieces", "2",
    )
    assert code == 0
    assert json.loads(out) == {"bound_kind": "ByPieceCount", "counts": {"1": "1", "2": "4"}}


def test_enumerate_list_is_lexicographic(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--sizes", "1", "--shape", "tower", "--area", "2", "--list",
    )
    assert code == 0
    assert out.splitlines() == ["[[[0,1]]]", "[[[0,1]],[[0,1]]]", "[[[0,1],[1,2]]]"]


def test_enumerate_weighted_table(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--sizes", "1,2", "--area", "2", "--weighted",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomials"]["2"] == {"0,1": "1", "2,0": "2"}


def test_eliminate_dimer_tower(capsys):
    code, out, _ = run(
        capsys, "eliminate", "--sizes", "2", "--shape", "tower", "--order", "60",
    )
    assert code == 0
    assert json.loads(out) == {
        "y_degree": 1,
        "coeffs_in_t": [["0", "0", "1"], ["-1", "0", "4"]],
    }


@pytest.mark.parametrize("pieces, shape", [
    *((PieceSet.of(1, 9), shape) for shape in Shape),
    (PieceSet.of(9, rule=Rule.NO_EXACT_ALIGNMENT), Shape.TOWER),
], ids=[*(f"1,9-{shape.value}" for shape in Shape), "noalign-9-tower"])
def test_eliminate_takes_pieces_past_8_mers(capsys, pieces, shape):
    sizes = ",".join(map(str, pieces.sizes))
    code, out, err = run(capsys, "eliminate", "--sizes", sizes, "--rule", pieces.rule.value,
                         "--shape", shape.value, "--order", "60")
    assert code == 0
    assert err == ""
    rows = json.loads(out)["coeffs_in_t"]
    q = BivariatePolynomial(tuple(IntPoly(int(c) for c in row) for row in rows))
    assert verify_annihilator(q, series_family(pieces, 60, through=shape)[shape])


def test_guess_extend_asympt_pipeline(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    rec_path = tmp_path / "rec.json"
    long_path = tmp_path / "long.json"

    code, _, _ = run(
        capsys, "series", "--sizes", "2", "--rule", "noalign", "--shape", "half",
        "--order", "140", "--by-pieces", "--out", str(seq_path),
    )
    assert code == 0
    code, _, _ = run(capsys, "guess", "--input", str(seq_path), "--out", str(rec_path))
    assert code == 0
    rec = json.loads(rec_path.read_text())
    assert rec["order"] == 2

    code, _, _ = run(
        capsys, "extend", "--rec", str(rec_path), "--init", str(seq_path),
        "--terms", "600", "--out", str(long_path),
    )
    assert code == 0
    assert len(json.loads(long_path.read_text())["terms"]) == 600

    code, out, _ = run(capsys, "asympt", "--input", str(long_path), "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"].startswith("2.9999") or payload["mu"] == "3"
    assert payload["theta"].startswith("-1.4") or payload["theta"].startswith("-1.5")


def test_guess_without_recurrence_exits_3(tmp_path, capsys):
    import random

    rng = random.Random(99)
    seq_path = tmp_path / "noise.json"
    seq_path.write_text(json.dumps({
        "offset": 0, "terms": [str(rng.getrandbits(32)) for _ in range(80)],
    }))
    code, out, err = run(capsys, "guess", "--input", str(seq_path))
    assert code == 3
    assert out == ""
    assert "no recurrence" in err


def test_guess_on_the_tower_series_without_a_short_recurrence_exits_3(tmp_path, capsys):
    # S={1,2,3} towers need order 7; the default bounds stop at order 5
    series = series_family(PieceSet((1, 2, 3)), 400)[Shape.TOWER]
    seq_path = tmp_path / "towers.json"
    seq_path.write_text(jsonio.dumps(jsonio.sequence_to_json(sequence_from_series(series))))
    code, out, err = run(capsys, "guess", "--input", str(seq_path))
    assert code == 3
    assert out == ""
    assert err == "no recurrence found within the order/degree bounds\n"


def test_extend_singular_exits_4(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    init_path = tmp_path / "init.json"
    rec_path.write_text(json.dumps({
        "order": 1, "degree": 1, "coeffs": [["10", "-2"], ["-5", "1"]],
    }))
    init_path.write_text(json.dumps({"offset": 0, "terms": ["1"]}))
    argv = ["extend", "--rec", str(rec_path), "--init", str(init_path), "--terms", "10"]
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert "n=5" in err
    assert out == ""
    out_path = tmp_path / "long.json"
    assert run(capsys, *argv, "--out", str(out_path))[0] == 4
    assert not out_path.exists()
    out_path.write_bytes(b"earlier output\n")
    assert run(capsys, *argv, "--out", str(out_path))[0] == 4
    assert out_path.read_bytes() == b"earlier output\n"


def test_inconsistent_extension_exits_5(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    init_path = tmp_path / "init.json"
    rec_path.write_text(json.dumps({
        "order": 1, "degree": 0, "coeffs": [["-1"], ["2"]],
    }))
    init_path.write_text(json.dumps({"offset": 0, "terms": ["3"]}))
    argv = ["extend", "--rec", str(rec_path), "--init", str(init_path), "--terms", "5"]
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert "not exact" in err
    assert out == ""
    out_path = tmp_path / "long.json"
    assert run(capsys, *argv, "--out", str(out_path))[0] == 5
    assert not out_path.exists()
    out_path.write_bytes(b"earlier output\n")
    assert run(capsys, *argv, "--out", str(out_path))[0] == 5
    assert out_path.read_bytes() == b"earlier output\n"


def failing_extension(tmp_path, code):
    """Paths of a recurrence and initial terms whose unroll exits with code (4 or 5)."""
    rec_path = tmp_path / "rec.json"
    init_path = tmp_path / "init.json"
    # past the first window of new terms: (n-200) a(n+1) = 2 (n-200) a(n) is
    # singular at n=200, and 2 a(n+1) = a(n) from 3 * 2^150 is not exact at n=150
    coeffs = [["400", "-2"], ["-200", "1"]] if code == 4 else [["-1"], ["2"]]
    rec_path.write_text(json.dumps({"order": 1, "degree": len(coeffs[0]) - 1, "coeffs": coeffs}))
    init_path.write_text(json.dumps({"offset": 0, "terms": [str(1 if code == 4 else 3 * 2**150)]}))
    return ["extend", "--rec", str(rec_path), "--init", str(init_path), "--terms", "300"]


@pytest.mark.parametrize("code", [4, 5])
def test_a_failed_extension_leaves_no_temporary_behind(tmp_path, capsys, code):
    argv = failing_extension(tmp_path, code)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out_path = out_dir / "long.json"
    assert run(capsys, *argv, "--out", str(out_path))[:2] == (code, "")
    assert list(out_dir.iterdir()) == []
    out_path.write_bytes(b"earlier output\n")
    code_again, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code_again, out) == (code, "")
    assert ("n=200" if code == 4 else "p_r(150)") in err
    assert list(out_dir.iterdir()) == [out_path]
    assert out_path.read_bytes() == b"earlier output\n"
    assert run(capsys, *argv)[:2] == (code, "")  # stdout gets no partial output either


def test_a_new_out_gets_the_mode_open_gives(tmp_path, capsys):
    rec_path, seq_path = trimer_chain(tmp_path, capsys)
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "reference.json", "w", encoding="utf-8"):
            pass
        code = main(["extend", "--rec", str(rec_path), "--init", str(seq_path), "--terms", "100",
                     "--out", str(tmp_path / "long.json")])
    finally:
        os.umask(old_umask)
    assert code == 0
    assert (tmp_path / "long.json").stat().st_mode == (tmp_path / "reference.json").stat().st_mode
    assert (tmp_path / "long.json").stat().st_mode & 0o777 == 0o640


def small_run(tmp_path, command):
    """A quick successful argv for command, its input files written under tmp_path."""
    seq_path, rec_path, init_path = tmp_path / "seq.json", tmp_path / "rec.json", tmp_path / "init.json"
    seq_path.write_text(json.dumps({"offset": 0, "terms": [str(3**n + n) for n in range(60)]}))
    rec_path.write_text(json.dumps({"order": 1, "degree": 0, "coeffs": [["-3"], ["1"]]}))
    init_path.write_text(json.dumps({"offset": 0, "terms": ["1"]}))
    return {
        "enumerate": ["enumerate", "--sizes", "1,2", "--area", "5", "--list"],
        "series": ["series", "--sizes", "1,2", "--order", "10"],
        "eliminate": ["eliminate", "--sizes", "2", "--order", "20"],
        "guess": ["guess", "--input", str(seq_path)],
        "extend": ["extend", "--rec", str(rec_path), "--init", str(init_path), "--terms", "20"],
        "asympt": ["asympt", "--input", str(seq_path), "--depth", "2"],
        "render": ["render", "--sizes", "2", "--pieces", "2"],
        "verify": ["verify", "--max-area", "4", "--max-pieces", "3"],
    }[command]


@pytest.mark.parametrize("command", ["enumerate", "series", "eliminate", "guess", "extend", "asympt",
                                     "render", "verify"])
def test_every_command_replaces_its_out_keeping_mode_and_link(tmp_path, capsys, command):
    argv = small_run(tmp_path, command)
    code, want, _ = run(capsys, *argv)
    assert code == 0 and want
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "result"
    target.write_bytes(b"earlier output\n")
    target.chmod(0o600)
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_bytes() == want.encode("utf-8")
    assert target.stat().st_mode & 0o777 == 0o600
    link = tmp_path / "link"
    link.symlink_to(Path("data") / "result")
    target.write_bytes(b"earlier output\n")
    assert run(capsys, *argv, "--out", str(link))[:2] == (0, "")
    assert link.is_symlink() and os.readlink(link) == str(Path("data") / "result")
    assert target.read_bytes() == want.encode("utf-8")
    assert [p.name for p in target.parent.iterdir()] == ["result"]


def test_the_temporary_has_the_outs_mode_while_the_command_runs(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "result"
    out_path.write_bytes(b"earlier output\n")
    out_path.chmod(0o600)
    modes = []

    def observed(args, out):
        out.write("partial")
        out.flush()
        modes.extend(p.stat().st_mode & 0o777 for p in tmp_path.iterdir() if p != out_path)
        return 0

    monkeypatch.setattr(cli, "cmd_verify", observed)
    assert run(capsys, "verify", "--out", str(out_path)) == (0, "", "")
    assert modes == [0o600]
    assert out_path.read_bytes() == b"partial"


def test_an_out_that_is_a_fifo_is_written_in_place(tmp_path, capsys):
    argv = small_run(tmp_path, "series")
    want = run(capsys, *argv)[1].encode("utf-8")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader opened first, without blocking, so the writer's open does not block either
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, *argv, "--out", str(fifo))[:2] == (0, "")
        got = b"".join(iter(lambda: os.read(reader, 65536), b""))
    finally:
        os.close(reader)
    assert got == want
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "init.json", "rec.json", "seq.json"]


@pytest.mark.parametrize("argv, code, message", [
    # a guess that comes back empty, and an order found too small inside `series`
    (["guess", "--input", "noise.json"], 3, "no recurrence found within the order/degree bounds\n"),
    (["series", "--sizes", "1,2,3", "--by-pieces", "--order", "0"], 2,
     "error: order 0 is too small for even one piece of the largest size\n"),
])
def test_a_failed_command_leaves_an_earlier_out_as_it_was(tmp_path, capsys, monkeypatch, argv, code,
                                                          message):
    monkeypatch.chdir(tmp_path)
    Path("noise.json").write_text(json.dumps({
        "offset": 0, "terms": [str((n * 7919) ** 5 % 1000003) for n in range(80)],
    }))
    Path("out").mkdir()
    out_path = Path("out") / "result"
    out_path.write_bytes(b"earlier output\n")
    assert run(capsys, *argv, "--out", str(out_path)) == (code, "", message)
    assert out_path.read_bytes() == b"earlier output\n"
    assert list(out_path.parent.iterdir()) == [out_path]
    assert run(capsys, *argv) == (code, "", message)


@pytest.mark.parametrize("command", ["series", "extend"])
def test_an_out_that_cannot_be_made_is_named_as_given(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    out_path = str(Path("missing") / "result")
    assert run(capsys, *small_run(tmp_path, command), "--out", out_path) == (
        2, "", f"error: [Errno 2] No such file or directory: {out_path!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["init.json", "rec.json", "seq.json"]


def test_a_directory_out_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "cmd_series", lambda args, out: ran.append(args) or 0)
    monkeypatch.chdir(tmp_path)
    Path("somedir").mkdir()
    assert run(capsys, "series", "--sizes", "1,2,3", "--order", "1500", "--out", "somedir") == (
        2, "", f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'somedir'\n")
    assert ran == []
    assert list(Path("somedir").iterdir()) == []


def test_a_failing_verify_exits_5_and_still_writes_its_report(tmp_path, capsys, monkeypatch):
    real = identities.verify_identities

    def one_failing(**bounds):
        first, *rest = real(**bounds)
        return [CheckResult(first.name, "a planted failure"), *rest]

    monkeypatch.setattr(identities, "verify_identities", one_failing)
    argv = ["verify", "--max-area", "4", "--max-pieces", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 5
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"][0]["detail"] == "a planted failure"
    out_path = tmp_path / "report.json"
    out_path.write_bytes(b"earlier output\n")
    assert run(capsys, *argv, "--out", str(out_path))[:2] == (5, "")
    assert out_path.read_text(encoding="utf-8") == out


def test_enumerate_list_streams_its_output(tmp_path, capsys):
    out_path = tmp_path / "towers.txt"
    argv = ["enumerate", "--sizes", "3", "--pieces", "6", "--list"]
    assert main([*argv[:-2], "1", "--list", "--out", str(out_path)]) == 0  # modules loaded
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(out_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # one tower's line is alive at a time (~170 kB against a 540 kB file),
    # where holding every line takes ~4 times the file
    assert peak < out_path.stat().st_size // 2
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == out_path.read_bytes()


def test_render_writes_as_it_draws(tmp_path, capsys):
    out_path = tmp_path / "gallery.svg"
    argv = ["render", "--sizes", "1,2", "--pieces", "5"]
    assert main([*argv[:-1], "1", "--out", str(out_path)]) == 0  # modules loaded
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(out_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # the towers and their boxes are kept (~1 MB against a 2.9 MB file),
    # where holding every element's text takes ~4 times the file
    assert peak < out_path.stat().st_size // 2
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == out_path.read_bytes()


def test_enumerate_list_of_no_tower_prints_nothing(capsys):
    # no pyramid of 3-mers has area 2
    assert run(capsys, "enumerate", "--sizes", "3", "--shape", "pyramid", "--area", "2",
               "--list") == (0, "", "")


def test_extend_writes_zero_not_minus_zero(tmp_path, capsys):
    # (n-5) a(n+1) = -a(n): p_1(n) < 0 for the first terms
    rec_path = tmp_path / "rec.json"
    init_path = tmp_path / "init.json"
    rec_path.write_text(json.dumps({"order": 1, "degree": 1, "coeffs": [["1"], ["-5", "1"]]}))
    init_path.write_text(json.dumps({"offset": 0, "terms": ["0"]}))
    code, out, _ = run(capsys, "extend", "--rec", str(rec_path), "--init", str(init_path),
                       "--terms", "4")
    assert code == 0
    assert json.loads(out)["terms"] == ["0", "0", "0", "0"]


def trimer_chain(tmp_path, capsys):
    """The recurrence and initial terms of trimer towers by piece count, as files."""
    seq_path = tmp_path / "seq.json"
    rec_path = tmp_path / "rec.json"
    run(capsys, "series", "--sizes", "3", "--shape", "tower", "--order", "210", "--by-pieces",
        "--out", str(seq_path))
    run(capsys, "guess", "--input", str(seq_path), "--out", str(rec_path))
    return rec_path, seq_path


def test_extend_writes_what_the_int_unroll_writes(tmp_path, capsys):
    rec_path, seq_path = trimer_chain(tmp_path, capsys)
    long_path = tmp_path / "long.json"
    argv = ["extend", "--rec", str(rec_path), "--init", str(seq_path), "--terms", "3000"]
    code, _, _ = run(capsys, *argv, "--out", str(long_path))
    assert code == 0
    rec = jsonio.recurrence_from_json(json.loads(rec_path.read_text()))
    read = jsonio.sequence_from_json(json.loads(seq_path.read_text()))
    init = Sequence(read.offset, tuple(map(int, read.terms)), read.label)  # the int route
    int_route = extend_sequence(rec, init, 3000)
    assert type(int_route.terms[-1]) is int
    assert long_path.read_text() == jsonio.dumps(jsonio.sequence_to_json(int_route))
    code, out, _ = run(capsys, *argv)  # stdout gets the same bytes
    assert code == 0
    assert out.encode("utf-8") == long_path.read_bytes()


def test_extend_streams_its_output(tmp_path, capsys):
    rec_path, seq_path = trimer_chain(tmp_path, capsys)
    long_path = tmp_path / "long.json"
    tracemalloc.start()  # traces libmpdec's allocations too
    try:
        code = main(["extend", "--rec", str(rec_path), "--init", str(seq_path),
                     "--terms", "6000", "--out", str(long_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # a window of terms is alive at a time, and the digits of only one term:
    # ~1/40 of the file, where holding every term as a Decimal takes ~1/2
    assert peak < long_path.stat().st_size // 10


def test_extend_writes_its_label_byte_for_byte(tmp_path, capsys, monkeypatch):
    rec_path, seq_path = trimer_chain(tmp_path, capsys)
    scanned = []  # per asympt run: whether the chunked scan read the file
    plain_tail = jsonio._plain_tail

    def spy(raw, count):
        seq = plain_tail(raw, count)
        scanned.append(seq is not None)
        return seq

    monkeypatch.setattr(jsonio, "_plain_tail", spy)
    labelled_path = tmp_path / "labelled.json"
    label = 'trimer "towers" à 塔'
    labelled_path.write_text(json.dumps(dict(json.loads(seq_path.read_text()), label=label)))
    outputs = {}
    for name, init in (("plain", seq_path), ("labelled", labelled_path)):
        long_path = tmp_path / f"{name}-long.json"
        code, _, _ = run(capsys, "extend", "--rec", str(rec_path), "--init", str(init),
                         "--terms", "400", "--out", str(long_path))
        assert code == 0
        code, outputs[name], _ = run(capsys, "asympt", "--input", str(long_path))
        assert code == 0
    text = (tmp_path / "labelled-long.json").read_text(encoding="utf-8")
    assert text.endswith(',\n  "label": "trimer \\"towers\\" \\u00e0 \\u5854"\n}\n')
    assert json.loads(text)["label"] == label
    # the escaped label is scanned too, to the same estimate
    assert scanned == [True, True]
    assert outputs["labelled"] == outputs["plain"]


def test_asympt_checks_terms_it_does_not_read(tmp_path, capsys):
    path = tmp_path / "long.json"
    terms = [str(3**n) for n in range(60)]
    terms[0] = "x"
    path.write_text(json.dumps({"offset": 0, "terms": terms}))
    code, out, err = run(capsys, "asympt", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "not an integer: 'x'" in err


def test_asympt_too_short_names_the_full_count(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"offset": 0, "terms": [str(3**n) for n in range(23)]}))
    code, out, err = run(capsys, "asympt", "--input", str(path), "--depth", "4")
    assert code == 2
    assert out == ""
    assert err == "error: depth 4 needs at least 24 terms, got 23\n"


def test_asympt_checks_depth_before_reading_its_input(tmp_path, capsys, monkeypatch):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"offset": 0, "terms": ["1"] * 60000}))

    def forbidden(handle, count):
        raise AssertionError("asympt read its input before checking --depth")

    monkeypatch.setattr(jsonio, "sequence_tail", forbidden)
    with pytest.raises(SystemExit) as excinfo:
        main(["asympt", "--input", str(path), "--depth", "-1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "towers asympt: error: argument --depth: must be >= 0, got -1" in captured.err


def test_asympt_streams_its_input(tmp_path, capsys):
    rec_path, seq_path = trimer_chain(tmp_path, capsys)
    long_path = tmp_path / "long.json"
    main(["extend", "--rec", str(rec_path), "--init", str(seq_path), "--terms", "6000",
          "--out", str(long_path)])
    tracemalloc.start()  # traces libmpdec's allocations too
    try:
        code = main(["asympt", "--input", str(long_path), "--out", str(tmp_path / "est.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # every term is read and checked, but only a chunk of the file and the tail are held
    assert peak < long_path.stat().st_size / 4


class _Pipe(io.BytesIO):
    """Bytes that read like a pipe: no seeking."""

    def seekable(self) -> bool:
        return False


@pytest.mark.parametrize("stdin", [io.BytesIO, _Pipe])
@pytest.mark.parametrize("label", ["plain", "tab\tescaped"])  # scanned, or parsed by json.load
def test_asympt_reads_stdin_as_it_reads_the_file(tmp_path, capsys, monkeypatch, stdin, label):
    path = tmp_path / "long.json"
    seq = Sequence(3, tuple(math.comb(2 * n, n) for n in range(3, 400)), label)
    path.write_text(jsonio.dumps(jsonio.sequence_to_json(seq)))
    code, want, _ = run(capsys, "asympt", "--input", str(path))
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(stdin(path.read_bytes()), encoding="utf-8"))
    assert run(capsys, "asympt", "--input", "-") == (0, want, "")


@pytest.mark.parametrize("argv, payload, message", [
    (["asympt", "--input"], [str(3**n) for n in range(30)], "a sequence must be a JSON object, got an array"),
    (["asympt", "--input"], {"offset": None, "terms": ["1"] * 30}, "offset must be an integer, got null"),
    (["asympt", "--input"], {"offset": 0.5, "terms": ["1"] * 30}, "offset must be an integer, got a float"),
    (["asympt", "--input"], {"offset": 0, "terms": "1" * 30}, "terms must be an array, got a string"),
    (["guess", "--input"], {"offset": True, "terms": ["1"] * 30}, "offset must be an integer, got a boolean"),
    (["guess", "--input"], [str(3**n) for n in range(30)], "a sequence must be a JSON object, got an array"),
    (["extend", "--terms", "40", "--init", "init.json", "--rec"], {"order": 1, "coeffs": None},
     "coeffs must be an array of arrays of integers"),
    (["guess", "--input"], {"offset": 0}, 'a sequence has no "terms" field'),
    (["asympt", "--input"], {"terms": ["1"] * 30}, 'a sequence has no "offset" field'),
    (["extend", "--terms", "40", "--init", "init.json", "--rec"], {"order": 1},
     'a recurrence has no "coeffs" field'),
    # JSON's true is no integer, so this is not a(n+1) = 2 a(n)
    (["extend", "--terms", "40", "--init", "init.json", "--rec"],
     {"order": 1, "degree": 0, "coeffs": [[-2], [True]]}, "not an integer: True"),
])
def test_payload_shape_errors_exit_2(tmp_path, capsys, monkeypatch, argv, payload, message):
    monkeypatch.chdir(tmp_path)
    Path("init.json").write_text(json.dumps({"offset": 0, "terms": ["1"]}))
    Path("input.json").write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, "input.json")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_extend_negative_terms_exits_2_and_writes_nothing(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    init_path = tmp_path / "init.json"
    out_path = tmp_path / "long.json"
    rec_path.write_text(json.dumps({"order": 1, "degree": 0, "coeffs": [["-3"], ["1"]]}))
    init_path.write_text(json.dumps({"offset": 0, "terms": ["1", "3", "9", "27", "81", "243"]}))
    with pytest.raises(SystemExit) as excinfo:
        main(["extend", "--rec", str(rec_path), "--init", str(init_path),
              "--terms", "-5", "--out", str(out_path)])
    assert excinfo.value.code == 2
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["enumerate", "--sizes", "2", "--pieces", "0"],
    ["enumerate", "--sizes", "2", "--area", "0"],
    ["render", "--sizes", "2", "--pieces", "0"],
    ["verify", "--max-area", "0"],
    ["verify", "--max-pieces", "0"],
    ["extend", "--rec", "rec.json", "--init", "init.json", "--terms", "0"],
    ["guess", "--input", "seq.json", "--max-order", "0"],
])
def test_bound_errors_name_their_flag(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    flag = argv[-2]
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["series", "--sizes", "1,2", "--order", "-3"],
    ["series", "--sizes", "1,2", "--by-pieces", "--order", "-3"],
    ["eliminate", "--sizes", "1,2", "--order", "-3"],
])
def test_order_errors_name_their_flag(capsys, argv):
    # the value given is reported, not the piece count --by-pieces derives from it
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "argument --order: must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["guess", "--input", "seq.json", "--max-degree", "-1"],
    ["guess", "--input", "seq.json", "--guard", "-1"],
    ["asympt", "--input", "seq.json", "--depth", "-1"],
])
def test_non_negative_bound_errors_name_their_flag(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    flag = argv[-2]
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err


def test_noalign_multi_size_exits_2(capsys):
    code, _, err = run(capsys, "series", "--sizes", "1,2", "--rule", "noalign", "--order", "5")
    assert code == 2
    assert "single piece size" in err


def test_cli_import_leaves_sympy_unloaded():
    # sympy is a test-only reference: not even elimination may import it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = (
        "import sys, towers.cli\n"
        "towers.cli.main(['eliminate', '--sizes', '1,2', '--shape', 'tower', '--order', '40'])\n"
        "sys.exit('sympy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert b'"y_degree": 2' in result.stdout


_SRC = Path(__file__).resolve().parents[1] / "src"
_MODULES = {path.stem for path in (_SRC / "towers").glob("*.py")} - {"__init__"}
_CHAIN_UNLOADED = {"algebra", "identities", "enumeration", "series", "gallery", "asymptotics"}


@pytest.mark.parametrize("argv, unloaded", [
    (["--help"], _MODULES - {"cli", "errors", "model"}),
    (["series", "--sizes", "1,2,3", "--order", "300"],
     {"algebra", "identities", "enumeration", "recurrences"}),
    (["series", "--sizes", "3", "--by-pieces", "--order", "300"],
     {"algebra", "identities", "enumeration", "recurrences"}),
    (["guess", "--input", "seq.json"], _CHAIN_UNLOADED),
    (["extend", "--rec", "rec.json", "--init", "seq.json", "--terms", "300"], _CHAIN_UNLOADED),
    (["asympt", "--input", "trimer.json"],
     {"algebra", "identities", "enumeration", "series", "recurrences", "polynomials"}),
    (["series", "--sizes", "1,2,3", "--order", "600"],
     {"identities", "enumeration", "gallery", "asymptotics"}),
    (["eliminate", "--sizes", "1,2", "--order", "40"],
     {"identities", "enumeration", "gallery", "asymptotics", "recurrences"}),
    (["enumerate", "--sizes", "1,2", "--area", "6"],
     {"series", "algebra", "identities", "gallery", "asymptotics"}),
    (["render", "--sizes", "1,2", "--pieces", "2"],
     {"series", "algebra", "identities", "asymptotics", "jsonio", "recurrences", "polynomials"}),
    (["verify", "--max-area", "6", "--max-pieces", "4"], {"gallery", "asymptotics"}),
], ids=["help", "series", "series-by-pieces", "guess", "extend", "asympt", "series-unrolled",
        "eliminate", "enumerate", "render", "verify"])
def test_each_command_imports_only_what_it_runs(asympt_inputs, argv, unloaded):
    # every command starts a fresh interpreter, so what it imports is start-up it pays
    # cli imports the modules the commands run at start-up, and the package serves
    # each lazily; one that never ran is still of a lazy subclass of ModuleType, so
    # only exact ModuleTypes have run.  No command needs dataclasses or inspect,
    # the largest imports the package could add
    probe = (
        "import json, sys, types\n"
        "from towers.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "ran = [m for m, module in sys.modules.items()\n"
        "       if m.startswith('towers.') and type(module) is types.ModuleType]\n"
        "heavy = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "print(json.dumps([ran, heavy]), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=env, timeout=60,
                            cwd=asympt_inputs["trimer"].parent, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    ran, heavy = json.loads(result.stderr.splitlines()[-1])
    loaded = {name.split(".")[1] for name in ran}
    assert "cli" in loaded
    assert not loaded & unloaded
    assert heavy == []


def test_argument_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--sizes", "2"])  # missing --pieces/--area
    assert excinfo.value.code == 2


def test_series_weighted_and_by_pieces_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["series", "--sizes", "1,2", "--order", "4", "--weighted", "--by-pieces"])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_enumerate_list_and_weighted_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--sizes", "1,2", "--area", "3", "--list", "--weighted"])
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["series", "--sizes", "1,2", "--order", "2", "--weighted", "--format", "csv"],
    ["enumerate", "--sizes", "1,2", "--area", "3", "--list", "--format", "text"],
    ["enumerate", "--sizes", "1,2", "--area", "3", "--weighted", "--format", "csv"],
], ids=["series-weighted", "enumerate-list", "enumerate-weighted"])
def test_json_only_outputs_reject_format(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "argument --format" in captured.err
    assert not captured.out


def test_weighted_enumeration_rejects_a_piece_bound(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--sizes", "1,2", "--pieces", "3", "--weighted"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "argument --weighted" in captured.err
    assert "--pieces" in captured.err
    assert not captured.out


@pytest.mark.parametrize("argv", [
    ["enumerate", "--sizes", "1,2", "--pieces", "3", "--weighted"],
    ["series", "--sizes", "1,2", "--order", "2", "--weighted", "--format", "csv"],
], ids=["enumerate-weighted-pieces", "series-weighted-csv"])
def test_flag_conflicts_are_reported_by_the_subcommand(capsys, argv):
    # as argparse reports the subcommand's own errors, not with the top-level usage
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: towers {argv[0]} ")
    assert f"\ntowers {argv[0]}: error: argument --" in err


def test_json_only_outputs_accept_format_json(capsys):
    code, out, _ = run(capsys, "series", "--sizes", "1,2", "--order", "2", "--weighted",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["sizes"] == [1, 2]


def test_render_to_file(tmp_path, capsys):
    out_path = tmp_path / "g.svg"
    code, _, _ = run(
        capsys, "render", "--sizes", "2", "--rule", "noalign", "--shape", "tower",
        "--pieces", "4", "--out", str(out_path),
    )
    assert code == 0
    assert 'tower-count">27<' in out_path.read_text()


def test_verify_small_scale(capsys):
    code, out, _ = run(capsys, "verify", "--max-area", "4", "--max-pieces", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) > 40


def test_outputs_are_byte_identical_across_runs(capsys):
    args = ("series", "--sizes", "2,3", "--order", "12")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# sha256 of `guess` output, recorded while the exact kernel was still Bareiss
# elimination: verify's 18 sequences of 60 terms at its bounds, concatenated,
# and the trimer towers by pieces (recurrence-long's series) at the defaults
GUESS_DIGESTS = {
    "verify": "716fafd4d715a3da9f6c3897f1ac329c37191ceb0a379ab06e8c0f18b8fdcff0",
    "trimer": "c9a6832cc751adb7a2997e834a0450c4dbd48d6700473cafa47db78e3353f838",
}


def test_guess_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "seq.json"
    hashed = hashlib.sha256()
    for pieces in [PieceSet(sizes) for sizes in ACCEPTANCE_SETS] + [
        PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)
    ]:
        family = series_family(pieces, 60)
        for shape in (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER):
            seq = sequence_from_series(family[shape])
            path.write_text(jsonio.dumps(jsonio.sequence_to_json(seq)))
            code, out, _ = run(capsys, "guess", "--input", str(path), "--max-order", "7",
                               "--max-degree", "5", "--guard", "5")
            assert code == 0
            hashed.update(out.encode("utf-8"))
    assert hashed.hexdigest() == GUESS_DIGESTS["verify"]
    code, _, _ = run(capsys, "series", "--sizes", "3", "--shape", "tower", "--order", "300",
                     "--by-pieces", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "guess", "--input", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GUESS_DIGESTS["trimer"]


# sha256 of the `verify` report, the same at both bounds, recorded while the
# exact kernel was still Bareiss elimination
VERIFY_DIGEST = "efb96b31320384561d174056fe9850e11de8e859fee575f4eb0ac25ad880b6f8"


@pytest.mark.parametrize("bounds", [(), ("--max-area", "10", "--max-pieces", "6")],
                         ids=["default", "area-10"])
def test_verify_report_bytes_are_pinned(capsys, bounds):
    code, out, _ = run(capsys, "verify", *bounds)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGEST


# ---------------------------------------------------------------- the unrolled route of `series`


@pytest.fixture
def derivations(monkeypatch):
    """The annihilating polynomials `series` derives a recurrence from: empty on the solver's route."""
    calls = []

    def recording(q):
        calls.append(q)
        return derive_recurrence(q)

    monkeypatch.setattr("towers.recurrences.derive_recurrence", recording)
    return calls


def solver_text(pieces, shape, order, fmt, by_pieces=False):
    """What `series` printed when it always solved: series_family, then the same writers."""
    series = series_family(pieces, order, through=shape)[shape]
    if fmt == "json" and not by_pieces:
        return jsonio.dumps(jsonio.series_to_json(series))
    terms = coefficients_by_pieces(series, pieces) if by_pieces else series.coeffs
    seq = Sequence(1 if by_pieces else 0, tuple(terms))
    if fmt == "csv":
        return jsonio.sequence_to_csv(seq)
    if fmt == "text":
        return jsonio.sequence_to_text(seq)
    return jsonio.dumps(jsonio.sequence_to_json(seq))


@pytest.mark.parametrize("sizes, rule, shape, fmt, by_pieces", [
    ("1,2", "all", "tower", "json", False),
    ("1,2", "all", "pyramid", "json", False),
    ("1,2", "all", "half", "json", False),
    ("1,2,3", "all", "tower", "csv", False),
    ("1,2,3", "all", "tower", "text", False),
    ("3", "all", "tower", "json", True),
    ("4", "all", "pyramid", "csv", True),
    ("2", "noalign", "tower", "json", False),
    ("2", "noalign", "half", "json", True),
    ("1", "noalign", "pyramid", "json", False),  # P = H = t, a polynomial
    ("1", "noalign", "half", "csv", False),
])
def test_unrolled_series_bytes_equal_the_solvers(capsys, derivations, sizes, rule, shape, fmt,
                                                 by_pieces):
    order = series._UNROLL_FROM_ORDER + 7
    argv = ["series", "--sizes", sizes, "--rule", rule, "--shape", shape, "--order", str(order),
            "--format", fmt] + (["--by-pieces"] if by_pieces else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(derivations) == 1
    pieces = PieceSet(tuple(map(int, sizes.split(","))), Rule(rule))
    assert out == solver_text(pieces, Shape(shape), order, fmt, by_pieces)


def _unrolled_inputs():
    """Every (pieces, shape) that `series` sends down the unroll route at a deep order."""
    sizes = range(1, series._UNROLL_MAX_SIZE + 1)
    sets = [PieceSet(chosen) for n in sizes for chosen in itertools.combinations(sizes, n)]
    sets += [PieceSet.of(k, rule=Rule.NO_EXACT_ALIGNMENT) for k in sizes]
    return [(pieces, shape) for pieces in sets for shape in Shape]


@pytest.mark.parametrize("pieces, shape", _unrolled_inputs(), ids=str)
def test_every_input_of_the_unroll_route_unrolls(monkeypatch, pieces, shape):
    # the recurrence derived from the prefix passes the guard: p_r(n) > 0 at
    # every n >= 0 read off its coefficients, and the overlap lies in the
    # prefix, so no input goes back to the solver
    orders, derived = [], []

    def solving(pieces, order, through):
        orders.append(order)
        return series_family(pieces, order, through=through)

    def deriving(q):
        derived.append(derive_recurrence(q))
        return derived[-1]

    monkeypatch.setattr("towers.series.series_family", solving)
    monkeypatch.setattr("towers.recurrences.derive_recurrence", deriving)
    series.plain_series(pieces, shape, series._UNROLL_FROM_ORDER)
    (rec, n0), = derived
    lead = rec.coeff_polys[-1].coeffs
    assert lead[0] > 0 and min(lead) >= 0
    assert n0 + 2 * rec.order - 1 <= series._PREFIX_ORDER
    assert orders == [series._PREFIX_ORDER]


def test_a_leading_coefficient_with_a_root_leaves_the_series_to_the_solver(capsys, monkeypatch):
    # times (n - 5) the recurrence still holds, but p_r(5) = 0 would stop the unroll
    def with_a_root(q):
        rec, n0 = derive_recurrence(q)
        return Recurrence(tuple(p * IntPoly((-5, 1)) for p in rec.coeff_polys)), n0

    monkeypatch.setattr("towers.recurrences.derive_recurrence", with_a_root)
    code, out, err = run(capsys, "series", "--sizes", "1,2,3", "--order", "600")
    assert (code, err) == (0, "")
    assert out == solver_text(PieceSet((1, 2, 3)), Shape.TOWER, 600, "json")


# sha256 of `series --sizes 1,2,3 --order 1000`, recorded while every order was solved
DEEP_SERIES_DIGEST = "93d1ba8ee4c747b26f55840f0faf0e6f39fb6e2cd27793bb30255958d6f2d4aa"


def test_deep_series_bytes_are_pinned(capsys, derivations):
    code, out, _ = run(capsys, "series", "--sizes", "1,2,3", "--order", "1000")
    assert code == 0
    assert len(derivations) == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEEP_SERIES_DIGEST


# sha256 of `series --sizes 1,2,3 --weighted --order 12` on stdout, recorded
# while each command still wrote its own output
WEIGHTED_SERIES_DIGEST = "67a098a6c2deae47827fe63e29788bce18c51e07bfe0133a34acf13057bbf845"


def test_weighted_series_bytes_are_pinned(capsys):
    code, out, err = run(capsys, "series", "--sizes", "1,2,3", "--weighted", "--order", "12")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WEIGHTED_SERIES_DIGEST


@pytest.mark.parametrize("argv", [
    ["--sizes", "1,2,3"],  # the default --order
    ["--sizes", "3", "--by-pieces", "--order", "300"],
    ["--sizes", "1,2,3", "--order", str(series._UNROLL_FROM_ORDER - 1)],
    ["--sizes", "9", "--order", str(series._UNROLL_FROM_ORDER)],
    ["--sizes", "2,5", "--order", str(series._UNROLL_FROM_ORDER)],
])
def test_series_solves_below_the_crossover_and_for_large_pieces(capsys, derivations, argv):
    code, _, err = run(capsys, "series", *argv)
    assert (code, err) == (0, "")
    assert derivations == []


def test_multi_size_noalign_series_still_exits_2(capsys, derivations):
    code, out, err = run(capsys, "series", "--sizes", "1,2", "--rule", "noalign",
                         "--order", str(series._UNROLL_FROM_ORDER))
    assert (code, out) == (2, "")
    assert err == ("error: series under the no-exact-alignment rule support a single piece "
                   "size only, got sizes (1, 2)\n")


_BY_PIECES_SETS = [PieceSet.of(k, rule=rule) for k in range(1, 7) for rule in Rule] + [
    PieceSet(sizes) for sizes in [(1, 2), (2, 3), (1, 2, 3)]]


@pytest.mark.parametrize("pieces", _BY_PIECES_SETS, ids=lambda p: f"{p.sizes}-{p.rule.value}")
@pytest.mark.parametrize("shape", list(Shape), ids=lambda s: s.value)
def test_series_by_pieces_writes_the_piece_count_sequence(capsys, pieces, shape):
    order = 60
    sizes = ",".join(map(str, pieces.sizes))
    code, out, err = run(capsys, "series", "--sizes", sizes, "--rule", pieces.rule.value,
                         "--shape", shape.value, "--order", str(order), "--by-pieces")
    assert (code, err) == (0, "")
    terms = piece_count_sequence(pieces, order // pieces.max_size, shape)
    assert out == jsonio.dumps(jsonio.sequence_to_json(Sequence(1, tuple(terms))))


def _spy(monkeypatch, *names):
    """Count the calls of each named `towers.series` function, which the module calls by that name."""
    calls = dict.fromkeys(names, 0)

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(series, name, counted(name, getattr(series, name)))
    return calls


@pytest.mark.parametrize("argv, reached", [
    # recurrence-long's first step
    (["--sizes", "3", "--shape", "tower", "--order", "300", "--by-pieces"],
     ["coefficients_by_pieces"]),
    # series-weighted's step
    (["--sizes", "1,2,3", "--by-pieces", "--order", "36"],
     ["piece_count_sequence", "solve_half_pyramids"]),
], ids=["recurrence-long", "series-weighted"])
def test_benchmark_series_steps_reach_the_layers_it_traces(capsys, monkeypatch, argv, reached):
    # perfbench's EXERCISED names these functions, and its tracer wraps them as
    # module attributes, so a route change that skips one fails here too
    calls = _spy(monkeypatch, *reached)
    code, _, err = run(capsys, "series", *argv)
    assert (code, err) == (0, "")
    assert all(calls.values()), calls


def test_unrolled_terms_that_disagree_with_the_solver_exit_5(capsys, monkeypatch):
    def bumped(rec, initial, length):
        terms = list(extend_sequence(rec, initial, length).terms)
        terms[len(initial)] += 1  # the first unrolled term
        return Sequence(initial.offset, tuple(terms))

    monkeypatch.setattr("towers.recurrences.extend_sequence", bumped)
    code, out, err = run(capsys, "series", "--sizes", "1,2,3", "--order", "600")
    assert (code, out, err) == (
        5, "", "error: the recurrence derived from Q disagrees with the solver at t^13\n")


@pytest.mark.parametrize("j", range(4))
def test_a_bumped_annihilator_never_changes_the_output(capsys, monkeypatch, derivations, j):
    # the recurrence each wrong Q derives has order 40 or more, so the terms it
    # must be checked on pass the prefix, and the solver prints the series
    real = annihilating_polynomial

    def bumped(pieces, shape, series):
        q = list(real(pieces, shape, series).coeffs)
        q[j] = q[j] + IntPoly((0, 1))
        return BivariatePolynomial(tuple(q))

    monkeypatch.setattr("towers.algebra.annihilating_polynomial", bumped)
    code, out, err = run(capsys, "series", "--sizes", "1,2,3", "--order", "600")
    assert (code, err) == (0, "")
    assert len(derivations) == 1
    assert out == solver_text(PieceSet((1, 2, 3)), Shape.TOWER, 600, "json")


_NOT_UTF8 = '{"offset": 0, "terms": ["1"], "label": "café"}'.encode("latin-1")
_NOT_UTF8_ERR = ("'utf-8' codec can't decode byte 0xe9 in position "
                 f"{_NOT_UTF8.index(0xE9)}: invalid continuation byte")


@pytest.fixture
def bad_inputs(tmp_path, monkeypatch):
    """Good rec.json and seq.json, and bad empty.json and bad.json (not UTF-8), in the cwd."""
    monkeypatch.chdir(tmp_path)
    Path("rec.json").write_text(json.dumps({"order": 1, "degree": 0, "coeffs": [["-3"], ["1"]]}))
    Path("seq.json").write_text(json.dumps({"offset": 0, "terms": ["1"]}))
    Path("empty.json").write_text("")
    Path("bad.json").write_bytes(_NOT_UTF8)


@pytest.mark.parametrize("bad", ["guess --input", "extend --rec", "extend --init", "asympt --input"])
def test_malformed_json_names_its_file(capsys, bad_inputs, bad):
    argv = {"guess": ["guess", "--input", "seq.json"],
            "extend": ["extend", "--rec", "rec.json", "--init", "seq.json", "--terms", "5"],
            "asympt": ["asympt", "--input", "seq.json"]}
    command, flag = bad.split()
    argv = argv[command]
    argv[argv.index(flag) + 1] = "empty.json"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: empty.json: Expecting value: line 1 column 1 (char 0)\n"


def test_malformed_json_on_stdin_is_named_dash(capsys, monkeypatch):
    # stdin's bytes are read, so it gets a UTF-8 text wrapper, as a real stdin is
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"{"), encoding="utf-8"))
    code, out, err = run(capsys, "guess", "--input", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: -: Expecting property name enclosed in double quotes")


_NOT_UTF8_ARGV = {
    "guess --input": ["guess", "--input", "bad.json"],
    "extend --rec": ["extend", "--rec", "bad.json", "--init", "seq.json", "--terms", "3"],
    "extend --init": ["extend", "--rec", "rec.json", "--init", "bad.json", "--terms", "3"],
    "asympt --input": ["asympt", "--input", "bad.json"],
}


@pytest.mark.parametrize("bad", list(_NOT_UTF8_ARGV))
def test_a_file_that_is_not_utf8_is_named(capsys, bad_inputs, bad):
    assert run(capsys, *_NOT_UTF8_ARGV[bad]) == (2, "", f"error: bad.json: {_NOT_UTF8_ERR}\n")


@pytest.mark.parametrize("stdin", [io.BytesIO, _Pipe])
@pytest.mark.parametrize("bad", ["guess --input", "extend --init", "asympt --input"])
def test_stdin_reads_bytes_that_are_not_utf8_as_a_file_does(capsys, monkeypatch, bad_inputs,
                                                            stdin, bad):
    # a C or C.UTF-8 locale's stdin takes any bytes, by surrogateescape
    wrapper = io.TextIOWrapper(stdin(_NOT_UTF8), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", wrapper)
    argv = [arg.replace("bad.json", "-") for arg in _NOT_UTF8_ARGV[bad]]
    assert run(capsys, *argv) == (2, "", f"error: -: {_NOT_UTF8_ERR}\n")
    assert not wrapper.closed and not wrapper.buffer.closed


def test_asympt_names_malformed_stdin_dash(capsys, monkeypatch):
    # stdin's bytes are read, so it gets a UTF-8 text wrapper, as a real stdin is
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b'{"offset": 0, "terms": ['),
                                                      encoding="utf-8"))
    code, out, err = run(capsys, "asympt", "--input", "-")
    assert (code, out) == (2, "")
    assert err == "error: -: Expecting value: line 1 column 25 (char 24)\n"


# ---------------------------------------------------------------- `asympt` bytes


# sha256 of `asympt` output, recorded while the estimate still summed reduced
# Fractions: the trimer towers by pieces extended to 2500 terms (recurrence-long's
# toy chain) at three depths, and two hand-made sequences at a nonzero offset,
# one of negative terms and one whose window changes sign
ASYMPT_DIGESTS = {
    ("trimer", 0): "cd332afc01d48cc4f82062f40c9bbedfe97fa6388d191bd9d9d6c4d5297a060c",
    ("trimer", 4): "799b570f4dd5a575155b96de2436e48a19628e8844bfe4d414de5af25d277d2f",
    ("trimer", 6): "09d2e54b8ce1b5d854973060eb3f35814525e743dd6fb0f8151d0340031f117f",
    ("negative", 0): "e3b48642b12541a355506a3c423b9894d796d07983ba2ebeeb78eace2cf5c6eb",
    ("negative", 3): "66465cd2ba4d9618fcc1c34da481d674a78a0fcdcce6f925199038c59acef9c2",
    ("sign change", 3): "cf70a5a04fa2a5c68ad0093be0473a53f6353ab6cf3f732d005f3f5d0b11306b",
    ("sign change", 4): "8fe2a5dcfe973601f2af7237bf6beeb5b966e09664ac6ba7f736491da1bc4b37",
}


@pytest.fixture(scope="module")
def asympt_inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("asympt")
    paths = {"trimer": tmp_path / "trimer.json"}
    assert main(["series", "--sizes", "3", "--shape", "tower", "--order", "210", "--by-pieces",
                 "--out", str(tmp_path / "seq.json")]) == 0
    assert main(["guess", "--input", str(tmp_path / "seq.json"),
                 "--out", str(tmp_path / "rec.json")]) == 0
    assert main(["extend", "--rec", str(tmp_path / "rec.json"), "--init",
                 str(tmp_path / "seq.json"), "--terms", "2500", "--out", str(paths["trimer"])]) == 0
    for name, seq in (
        ("negative", Sequence(17, tuple(-(math.comb(2 * n, n) + n) for n in range(17, 60)))),
        ("sign change", Sequence(5, tuple((2 * n - 81) * 2**n for n in range(5, 45)))),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(jsonio.dumps(jsonio.sequence_to_json(seq)))
    return paths


@pytest.mark.parametrize("name, depth", list(ASYMPT_DIGESTS))
def test_asympt_bytes_are_pinned(capsys, asympt_inputs, name, depth):
    code, out, _ = run(capsys, "asympt", "--input", str(asympt_inputs[name]), "--depth", str(depth))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ASYMPT_DIGESTS[name, depth]
