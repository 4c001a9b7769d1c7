"""The suite's own pytest configuration keeps a failing test's report."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers(0, 100))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_test_keeps_its_falsifying_example(tmp_path):
    # on a failure, hypothesis's report hook imports libcst, whose import
    # warns through mypy_extensions; under filterwarnings = error that ended
    # pytest in INTERNALERROR and lost the example
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("the report hook imports libcst only where it is installed")
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
