import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["rotational_study.py", "--nodes", "21", "--paths", "100", "--horizon", "1"],
    ["convergence_sweep.py", "--levels", "1"],
])
def test_script_runs(argv):
    # each script puts the checkout's src/ on its own path
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "==" in done.stdout
