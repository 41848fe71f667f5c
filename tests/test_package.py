import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import towers

# The names the package exported when it imported every module eagerly, by
# the module that defines each one; `Sequence` and `ZPolynomial` are model's.
EXPORTS = {
    "algebra": ["BivariatePolynomial", "annihilating_polynomial", "defining_polynomial_H",
                "verify_annihilator"],
    "asymptotics": ["AsymptoticEstimate", "ZeroTermError", "estimate_asymptotics"],
    "enumeration": ["BoundKind", "EnumerationQuery", "count_towers", "enumerate_towers",
                    "weight_polynomial"],
    "errors": ["ConsistencyError", "DegreeCapError", "InconsistentRecurrenceError",
               "InsufficientTermsError", "MalformedInputError", "SingularRecurrenceError",
               "UnsupportedConfigurationError"],
    "gallery": ["render_gallery"],
    "identities": ["ACCEPTANCE_SETS", "CheckResult", "verify_identities"],
    "model": ["PieceSet", "Rule", "Sequence", "Shape", "Tower", "ZPolynomial"],
    "polynomials": ["IntPoly"],
    "recurrences": ["Recurrence", "derive_recurrence", "extend_sequence",
                    "guess_recurrence", "sequence_from_series", "verify_recurrence"],
    "series": ["TruncatedSeries", "closed_form_dimer_towers", "closed_form_half_pyramids",
               "closed_form_pyramids", "coefficients_by_pieces", "half_pyramid_rhs",
               "piece_count_sequence", "plain_series", "series_family", "series_pyramids",
               "series_towers", "solve_half_pyramids", "weighted_series"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_the_exported_names():
    assert sorted(towers.__all__) == sorted(name for _module, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _module, name in NAMES])
def test_each_name_is_its_defining_modules_object(module, name):
    assert getattr(towers, name) is getattr(importlib.import_module(f"towers.{module}"), name)


def test_recurrences_still_exports_its_errors():
    from towers import errors, recurrences

    for name in ("InsufficientTermsError", "SingularRecurrenceError", "InconsistentRecurrenceError"):
        assert name in recurrences.__all__
        assert getattr(recurrences, name) is getattr(errors, name)


def test_recurrences_still_exports_sequence():
    from towers import model, recurrences

    assert "Sequence" in recurrences.__all__
    assert towers.Sequence is recurrences.Sequence is model.Sequence


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from towers import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(towers.__all__)
    assert all(namespace[name] is getattr(towers, name) for name in namespace)


def test_dir_lists_every_name():
    assert set(towers.__all__) <= set(dir(towers))
    assert "__version__" in dir(towers)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        towers.no_such_name  # noqa: B018
    assert not hasattr(towers, "cmd_series")


def test_version_is_unchanged():
    assert towers.__version__ == "0.1.0"


_SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """python *argv in a fresh interpreter that imports the package from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.run([sys.executable, *argv], env=env, timeout=60, capture_output=True, text=True)


def test_a_module_is_bound_at_once_and_runs_on_first_use():
    probe = (
        "import sys, types, towers\n"
        "from towers import series\n"
        "assert towers.series is series is sys.modules['towers.series']\n"
        "assert type(series) is not types.ModuleType, 'ran before its first use'\n"
        "assert 'towers.polynomials' not in sys.modules\n"
        "series.series_family\n"
        "assert type(series) is types.ModuleType\n"
        "assert sys.modules['towers.series'] is series\n"
    )
    result = _fresh("-c", probe)
    assert result.returncode == 0, result.stderr


def test_a_module_imported_beforehand_is_served_as_it_is():
    probe = (
        "import sys, types, towers\n"
        "import towers.series\n"
        "eager = sys.modules['towers.series']\n"
        "assert type(eager) is types.ModuleType\n"
        "assert towers.__getattr__('series') is towers.series is eager\n"
        "from towers import series\n"
        "assert series is eager\n"
    )
    result = _fresh("-c", probe)
    assert result.returncode == 0, result.stderr


def test_cli_runs_as_main_without_a_warning():
    # runpy warns if importing the package put towers.cli in sys.modules before it runs as __main__
    result = _fresh("-W", "error", "-m", "towers.cli", "--help")
    assert result.returncode == 0
    assert result.stderr == ""
