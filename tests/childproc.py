"""Python child processes that import tbk from this checkout.

pytest's ``pythonpath = ["src"]`` reaches only the test process, so a
child started from a checkout that was never installed would not find
tbk: ``run_python`` puts the checkout's ``src`` first on PYTHONPATH.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(args, **kwargs):
    """subprocess.run of ``python *args`` with text output captured;
    other keyword arguments (timeout, preexec_fn) pass through."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, **kwargs)
