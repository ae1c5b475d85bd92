"""Shared builders for the test suite: random elements, random verified
morphisms, the standard qubit channels, and fresh interpreter processes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ncplab
from ncplab.algebra import AlgebraElement, AlgebraShape, mk_element, mk_shape
from ncplab.channels import (
    NcpMorphism,
    mk_morphism,
    predual,
    random_cpu_map,
)
from ncplab.states import mk_state, random_state

SRC = Path(ncplab.__file__).resolve().parents[1]


def fresh(code: str, env: dict[str, str] | None = None) -> list[str]:
    """Standard output lines of ``python -c code`` in a fresh interpreter that
    imports ncplab from this tree, with ``env`` added to the environment."""
    env = {
        **os.environ,
        **(env or {}),
        "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    }
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

STANDARD_SHAPES = [
    mk_shape([2]),
    mk_shape([3]),
    mk_shape([1, 1]),
    mk_shape([2, 1]),
    mk_shape([2, 3]),
]


def random_element(shape: AlgebraShape, rng) -> AlgebraElement:
    return mk_element(
        shape,
        [
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in shape.blocks
        ],
    )


def random_unitary(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def depolarizing_kraus(lam: float) -> list[np.ndarray]:
    """Qubit depolarizing channel b -> (1-lam) b + lam Tr(b)/2, for lam <= 4/3."""
    return [np.sqrt(1.0 - 3.0 * lam / 4.0) * np.eye(2, dtype=complex)] + [
        np.sqrt(lam / 4.0) * p for p in (PAULI_X, PAULI_Y, PAULI_Z)
    ]


def random_morphism(
    shape_a: AlgebraShape,
    shape_b: AlgebraShape,
    seed: int,
    faithful: bool = True,
    mix_trace: float = 0.0,
) -> NcpMorphism:
    """Verified morphism (A, rho) -> (B, sigma) with sigma = rho o phi."""
    phi = random_cpu_map(shape_b, shape_a, seed=seed, mix_trace=mix_trace)
    rho = random_state(shape_a, faithful=faithful, seed=seed + 7919)
    sigma = predual(phi, rho)
    return mk_morphism((shape_a, rho), (shape_b, sigma), phi)


def random_rank_deficient_state(shape: AlgebraShape, rng):
    """State with at least one exactly-zero eigenvalue in some block."""
    mats = []
    dropped = False
    for n in shape.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = g @ g.conj().T
        if n > 1 and not dropped:
            w, v = np.linalg.eigh(d)
            w[0] = 0.0
            d = (v * w) @ v.conj().T
            d = (d + d.conj().T) / 2.0
            dropped = True
        mats.append(d)
    total = sum(np.trace(m).real for m in mats)
    return mk_state(shape, [m / total for m in mats])


def random_morphism_chain(shapes, seed: int, mix_trace: float = 0.1):
    """Composable verified morphisms through the given shape sequence."""
    rng_seed = seed
    rho = random_state(shapes[0], faithful=True, seed=seed + 104729)
    chain = []
    cur = (shapes[0], rho)
    for i, dst in enumerate(shapes[1:]):
        phi = random_cpu_map(dst, cur[0], seed=rng_seed + 31 * i, mix_trace=mix_trace)
        sigma = predual(phi, cur[1])
        chain.append(mk_morphism(cur, (dst, sigma), phi))
        cur = (dst, sigma)
    return chain
