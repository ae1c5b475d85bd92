"""Heap policy: ``import ncplab`` lets glibc keep freed heap in the process,
so a steady loop of matrix verdicts stops faulting its n^2 x n^2
temporaries back in.  Each run is a fresh interpreter with one BLAS thread
that loops a 3-Kraus [16] morphism job (two states, the Kraus map, the
morphism, an SLD monotonicity check, two GNS spaces, the induced contraction
and its norm): two passes to warm up, then five counted by the process's own
minor page faults.  Without the policy the job took 3,902 minor faults;
with it, 0 or 1."""

import os

import pytest

from conftest import fresh

MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")

JOB = """
import resource

import numpy as np

import ncplab

rng = np.random.default_rng(23)
n = 16
shape = ncplab.mk_shape([n])
raw = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
w, v = np.linalg.eigh(sum(k.conj().T @ k for k in raw))
kraus = [k @ (v / np.sqrt(w)) @ v.conj().T for k in raw]
g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
rho_block = g @ g.conj().T + 0.1 * n * np.eye(n)
rho_block = (rho_block + rho_block.conj().T) / (2.0 * np.trace(rho_block).real)
sigma_block = sum(k @ rho_block @ k.conj().T for k in kraus)
sigma_block = (sigma_block + sigma_block.conj().T) / 2.0


def job():
    rho = ncplab.mk_state(shape, [rho_block])
    sigma = ncplab.mk_state(shape, [sigma_block])
    phi = ncplab.from_kraus(shape, shape, kraus)
    m = ncplab.mk_morphism((shape, rho), (shape, sigma), phi)
    assert ncplab.monotonicity_check(ncplab.SLD, m, n_samples=100, seed=5)["passed"]
    c = ncplab.induced_contraction(m, ncplab.build_gns(shape, sigma), ncplab.build_gns(shape, rho))
    assert c.operator_norm <= 1.0 + 1e-9


for _ in range(2):
    job()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    job()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def _faults_per_job(env: dict[str, str]) -> float:
    return float(fresh(JOB, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", **env})[0])


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _glibc(), reason="the heap policy is glibc's")


@pytest.mark.skipif(
    any(var in os.environ for var in MALLOC_VARS) or "GLIBC_TUNABLES" in os.environ,
    reason="the environment sets glibc's heap thresholds itself",
)
def test_steady_matrix_loop_does_not_page_fault():
    assert _faults_per_job({}) <= 32


@pytest.mark.parametrize(
    "env",
    [
        dict.fromkeys(MALLOC_VARS, "131072"),
        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072:glibc.malloc.trim_threshold=131072"},
    ],
    ids=["malloc-vars", "tunables"],
)
def test_glibc_thresholds_in_the_environment_win(env):
    # thresholds of 128 KiB trim the freed temporaries after every stage again;
    # that the loop then faults also shows the count can see faults
    assert _faults_per_job(env) > 1000
