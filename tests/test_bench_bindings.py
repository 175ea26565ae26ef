"""The benchmark tracer binds latfix names from outside the package.

perfbench/tracing.py wraps each traced (module, attribute) pair when a
traced benchmark run starts, so deleting or renaming one of those names
breaks that run.  Resolving every pair here makes such a change fail
the test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    missing = []
    for metric, (module_name, attr) in traced.items():
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{metric}: {module_name}.{attr}")
    assert missing == []
