"""Lets the ``payband`` subprocesses that tests start import this checkout.

``pythonpath`` in pyproject.toml reaches only the test process itself, so a
bare ``python -m pytest`` also exports the checkout's ``src`` to children.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
