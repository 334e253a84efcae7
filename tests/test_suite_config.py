import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_does_not_end_the_session(tmp_path):
    """Under this repo's pytest settings, a failing @given test is reported
    as one failure and the tests after it still run."""
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_property_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_after_it_runs():\n"
        "    assert True\n"
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
