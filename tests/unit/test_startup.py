"""Start-up stays lean: the package, the service and the CLI import no
scipy or networkx.

scipy backs only the exact SOAC optimum and the harness's confidence
intervals, networkx only the copy-graph analysis; each is imported where
it is called.  The check runs in a fresh interpreter, since this test
process has likely imported both already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HEAVY = ("scipy", "networkx")


@pytest.mark.parametrize(
    "module", ["repro", "repro.streaming.server", "repro.__main__"]
)
def test_import_loads_no_heavy_dependency(module):
    probe = (
        f"import sys, json, {module}\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []
