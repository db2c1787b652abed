"""The benchmark's tracer finds every boundary it wraps.

`perfbench/tracer.py` wraps package functions by name; a renamed or removed
one is listed in `Tracer.missing` and its per-layer metrics read zero.  This
check turns such a rename into a test failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_boundary():
    code = "import json, tracer; t = tracer.Tracer(); t.install(); print(json.dumps(t.missing))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []
