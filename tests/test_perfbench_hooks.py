"""The benchmark's tracer hooks still match the program.

``perfbench/tracer.py`` wraps fragdiff's layers by name from outside the
package, so a hook whose target was renamed or removed fails when it is
installed.  Installing runs in a fresh interpreter: the wrappers never
reach the modules that the other tests import.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_every_hook():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer(0).install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
