"""The package runs on the standard library alone, and each demo prints
the text its golden under tests/data holds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import topocbt, topocbt.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert topocbt.cli.main(["run", "--scenario", "car-trading"]) == 0
    assert topocbt.cli.main(["betti", "--scenario", "car-trading"]) == 0
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"topocbt"})))
"""


def run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


def test_package_loads_only_standard_library_modules():
    # modules the interpreter loaded before the probe (site hooks) do not count
    assert run_python("-c", PROBE) == "\n"


# every demo, so one without a golden fails
@pytest.mark.parametrize("demo", sorted(path.stem.removeprefix("demo_") for path in (ROOT / "demos").glob("*.py")))
def test_demo_prints_the_golden_text(demo):
    golden = (ROOT / f"tests/data/demo_{demo}.txt").read_bytes()
    assert run_python(f"demos/demo_{demo}.py").encode() == golden
