"""The benchmark's traced runs wrap `acrocode` functions by module and name.

`perfbench/benchtrace.py` resolves each (module, attribute) of its `WRAPPED`
table with `getattr` when it installs, so renaming or deleting one of those
functions makes every traced benchmark run fail. This test reads the table
as it stands and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

BENCHTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "benchtrace.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("_benchtrace_names", BENCHTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_function_resolves_in_acrocode():
    wrapped = _wrapped()
    assert wrapped
    missing = [
        f"acrocode.{module}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(f"acrocode.{module}"), attr, None))
    ]
    assert missing == []
