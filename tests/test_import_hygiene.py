"""`import latfix.cli` in a clean interpreter loads none of the slow
standard modules that `tests/check_clean_import.py` names."""

import subprocess
import sys
from pathlib import Path

CHECK = Path(__file__).resolve().parent / "check_clean_import.py"


def test_cli_import_loads_no_slow_standard_module():
    done = subprocess.run(
        [sys.executable, "-S", "-E", str(CHECK)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
