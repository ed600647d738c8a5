"""The package's import path: numpy is its only third-party import, the
heap policy applied at import, and the README's Layout block names every
module of the package."""

import ctypes
import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def test_readme_layout_lists_every_module():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    lines = layout.splitlines()
    start = lines.index("src/milalign/") + 1
    listed = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        listed.append(line.split()[0])
    modules = sorted(p.name for p in (SRC / "milalign").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(listed) == modules
    assert len(listed) == len(set(listed))


def test_heap_policy_does_nothing_without_mallopt(monkeypatch):
    class NoMallopt:  # a loaded library lacking the symbol
        def __getattr__(self, name):
            raise AttributeError(name)

    monkeypatch.setattr(ctypes, "CDLL", lambda name: NoMallopt())
    importlib.reload(milalign)
    milalign._fix_heap_policy()


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the heap policy is set through glibc's mallopt")
def test_heap_policy_sets_two_mallopt_parameters(monkeypatch):
    real = ctypes.CDLL(None).mallopt
    real.argtypes = (ctypes.c_int, ctypes.c_int)
    real.restype = ctypes.c_int
    calls = []

    def mallopt(param, value):
        calls.append((param, value, real(param, value)))

    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    milalign._fix_heap_policy()
    # M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, each accepted (mallopt gives 1)
    assert calls == [(-1, 1 << 30, 1), (-3, 32 << 20, 1)]
