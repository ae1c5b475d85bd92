"""Import-time cost: ``import ncplab`` and ``import ncplab.cli`` load only
what every command needs.  scipy.sparse (about 15 ms and 1.6 MB) is
imported where a Markov map is built, on the first such map; scipy.linalg
(about 28 ms and 6.5 MB) is not imported by the package at all."""

import os
import subprocess
import sys
from pathlib import Path

import ncplab

SRC = Path(ncplab.__file__).resolve().parents[1]


def _fresh(code: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")


def test_scipy_sparse_not_loaded_by_import():
    out = _fresh(
        "import sys, ncplab, ncplab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
        "ncplab.congruent_embedding([0, 0], [0.5, 0.5])\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    assert out[0] == "[]"
    assert out[1] == "True"


def test_scipy_linalg_not_loaded_by_import():
    out = _fresh(
        "import sys, ncplab, ncplab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    assert out[0] == "[]"
