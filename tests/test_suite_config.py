"""The suite's own configuration, seen from a pytest run in a subprocess."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_deliberately_failing_property(x):
    assert x > x
"""


def test_a_failing_property_test_is_named(tmp_path):
    # hypothesis's failure report imports a module that raises a
    # DeprecationWarning; under the suite's warning filters it must not
    # stop the session before the failing test and its assertion are shown
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_failing_property.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "FAILED test_failing_property.py::test_deliberately_failing_property" in report
    assert "assert 0 > 0" in report
