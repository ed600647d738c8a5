"""The package's import path: numpy is its only third-party import."""

import os
import subprocess
import sys
from pathlib import Path

import milalign

SRC = Path(milalign.__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = ("import sys\n"
            "import milalign.cli, milalign.evaluation, milalign.gradcheck\n"
            "print('\\n'.join(sorted(m for m in sys.modules "
            "if m.startswith('scipy'))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
