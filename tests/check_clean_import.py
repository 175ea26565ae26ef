"""Fail when a clean import of latfix loads more than it needs.

Three checks, in this order:

- `import latfix` loads no other latfix module: the package re-exports
  nothing, and each name is imported from the module that defines it;
- `import latfix.cli` loads no standard module that is slow to import
  and that latfix does not need.  Every `latfix` command starts a fresh
  interpreter and pays for these before it can answer;
- every module under `src/latfix` imports on its own in a fresh
  interpreter, so no module depends on another having been imported
  first, and an import cycle between modules fails here.

Run the check with no `site` hooks, which may load modules first:

    python -S -E tests/check_clean_import.py
"""
import os
import sys

SLOW = ("dataclasses", "inspect", "typing", "pathlib", "random")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import latfix  # noqa: E402

loaded = sorted(name for name in sys.modules if name.startswith("latfix."))
if loaded:
    sys.exit(f"import latfix loaded {', '.join(loaded)}")

import latfix.cli  # noqa: E402

loaded = [name for name in SLOW if name in sys.modules]
if loaded:
    sys.exit(f"import latfix.cli loaded {', '.join(loaded)}")

import subprocess  # noqa: E402


def module_names() -> list[str]:
    """Dotted name of every module under src/latfix except `__main__`
    files, which run a command when imported."""
    names = []
    for folder, dirs, files in os.walk(os.path.join(SRC, "latfix")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        package = os.path.relpath(folder, SRC).replace(os.sep, ".")
        for file in files:
            stem, ext = os.path.splitext(file)
            if ext != ".py" or stem == "__main__":
                continue
            names.append(package if stem == "__init__" else f"{package}.{stem}")
    return sorted(names)


names = module_names()
failed = []
for name in names:
    done = subprocess.run(
        [sys.executable, "-S", "-E", "-c", f"import sys; sys.path.insert(0, {SRC!r}); import {name}"],
        capture_output=True,
        text=True,
    )
    if done.returncode:
        failed.append(f"{name}:\n{done.stderr}")
if failed:
    sys.exit("a module failed to import on its own: " + "\n".join(failed))
print(
    "import latfix loaded no other latfix module; "
    f"import latfix.cli loaded none of {', '.join(SLOW)}; "
    f"each of {len(names)} modules imported on its own"
)
