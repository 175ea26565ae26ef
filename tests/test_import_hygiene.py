"""`tests/check_clean_import.py` passes in a clean interpreter: `import
latfix` loads no submodule, `import latfix.cli` loads none of the slow
standard modules it names, and each latfix module imports on its own."""

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
