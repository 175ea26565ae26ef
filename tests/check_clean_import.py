"""Fail when `import latfix.cli` loads a standard module that is slow to
import and that latfix does not need.

Every `latfix` command starts a fresh interpreter and pays for these
before it can answer.  Run the check with no `site` hooks, which may
load them first:

    python -S -E tests/check_clean_import.py
"""
import os
import sys

SLOW = ("dataclasses", "inspect", "typing", "pathlib", "random")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import latfix.cli  # noqa: E402

loaded = [name for name in SLOW if name in sys.modules]
if loaded:
    sys.exit(f"import latfix.cli loaded {', '.join(loaded)}")
print(f"import latfix.cli loaded none of {', '.join(SLOW)}")
