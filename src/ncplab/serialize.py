"""JSON wire formats for shapes, elements, states, channels, and morphisms.

Complex entries are written as ``{"re": x, "im": y}``; plain numbers are
accepted on input.  See docs/schemas.md for the full schemas.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .algebra import AlgebraShape, InputError, _check_tol, abelian_shape, mk_shape
from .channels import (
    CpuMap,
    NcpMorphism,
    from_kraus,
    from_linear,
    markov_from_stochastic,
    mk_morphism,
)
from .states import NormalState, _state_from_vec, mk_state


class SerializationError(InputError):
    """Malformed or inconsistent JSON payload."""


def _complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _object(obj, what: str) -> None:
    if not isinstance(obj, dict):
        raise SerializationError(f"{what} payload must be a JSON object, got {type(obj).__name__}")


def _complex_from_json(obj) -> complex:
    re, im = (obj.get("re"), obj.get("im", 0.0)) if isinstance(obj, dict) else (obj, 0.0)
    for x in (re, im):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SerializationError(f"bad complex entry {obj!r}")
    return complex(re, im)


def matrix_to_json(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    return [[_complex_to_json(z) for z in row] for row in mat]


def _is_real_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _entries_from_json(obj) -> tuple[list, bool, tuple[int, int]]:
    """The entries of a JSON matrix as one flat list of numbers, whether
    they are (re, im) pairs, and the matrix shape.  Entries are pairs when
    some entry is an object.  The entry types are checked as one set, not
    one entry at a time; a bad entry is then found and named."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SerializationError("matrix must be a nonempty list of rows, each a list")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise SerializationError("matrix rows have unequal lengths")
    flat = list(chain.from_iterable(obj))
    types = set(map(type, flat))
    paired = any(issubclass(t, dict) for t in types)
    if paired:
        flat = list(chain.from_iterable(
            (z.get("re"), z.get("im", 0.0)) if isinstance(z, dict) else (z, 0.0)
            for z in flat
        ))
        types = set(map(type, flat))
    if not all(map(_is_real_type, types)):
        for z in chain.from_iterable(obj):
            _complex_from_json(z)  # raises on the first bad entry, naming it
    return flat, paired, (len(obj), width)


def _array(values: list, dtype) -> np.ndarray:
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise SerializationError(f"matrix entry out of range: {exc}") from exc


def matrix_from_json(obj) -> np.ndarray:
    values, paired, shape = _entries_from_json(obj)
    if paired:
        return _array(values, float).view(complex).reshape(shape)
    return _array(values, complex).reshape(shape)


def _real_matrix_from_json(obj) -> np.ndarray:
    values, paired, shape = _entries_from_json(obj)
    mat = _array(values, float)
    if paired:
        mat = mat.reshape(-1, 2)
        if np.any(mat[:, 1]):
            raise SerializationError("entries must be real numbers")
        mat = mat[:, 0].copy()
    return mat.reshape(shape)


def shape_to_json(shape: AlgebraShape) -> dict:
    return {"blocks": list(shape.blocks)}


def shape_from_json(obj) -> AlgebraShape:
    try:
        return mk_shape(obj["blocks"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad shape payload {obj!r}: {exc}") from exc


def state_to_json(state: NormalState) -> dict:
    return {
        "shape": shape_to_json(state.shape),
        "densities": [matrix_to_json(d) for d in state.densities],
    }


def state_from_json(obj) -> NormalState:
    _object(obj, "state")
    if "prob" in obj:
        p = _real_matrix_from_json([obj["prob"]])[0]
        return _state_from_vec(abelian_shape(len(p)), p)
    try:
        shape = shape_from_json(obj["shape"])
        mats = [matrix_from_json(d) for d in obj["densities"]]
    except (KeyError, TypeError) as exc:
        raise SerializationError("state payload needs 'shape' and 'densities', or 'prob'") from exc
    return mk_state(shape, mats)


def cpumap_to_json(phi: CpuMap) -> dict:
    if not isinstance(phi.linear_action, np.ndarray):
        # a Markov map: its stochastic matrix, the transpose of its CSR action
        return {"stochastic": phi.linear_action.T.toarray().tolist()}
    out = {
        "source": shape_to_json(phi.source_shape),
        "target": shape_to_json(phi.target_shape),
    }
    if phi.kraus is not None:
        out["kraus"] = [matrix_to_json(k) for k in phi.kraus]
    else:
        out["linear"] = matrix_to_json(phi.linear_action)
    return out


def cpumap_from_json(obj) -> CpuMap:
    _object(obj, "channel")
    if "stochastic" in obj:
        return markov_from_stochastic(_real_matrix_from_json(obj["stochastic"]))
    try:
        src = shape_from_json(obj["source"])
        dst = shape_from_json(obj["target"])
    except KeyError as exc:
        raise SerializationError("channel payload needs 'source' and 'target' shapes") from exc
    if "kraus" in obj:
        return from_kraus(src, dst, [matrix_from_json(k) for k in obj["kraus"]])
    if "linear" in obj:
        return from_linear(src, dst, matrix_from_json(obj["linear"]))
    raise SerializationError("channel payload needs 'kraus', 'linear', or 'stochastic'")


def morphism_to_json(m: NcpMorphism) -> dict:
    return {
        "source": state_to_json(m.source[1]),
        "target": state_to_json(m.target[1]),
        "cpu": cpumap_to_json(m.cpu),
    }


def morphism_from_json(obj, tol: float = 1e-9, verify: bool = True) -> NcpMorphism:
    """Load a morphism; with ``verify=False`` the carrier map is trusted.
    ``tol`` must be finite and >= 0 either way (else :class:`InputError`)."""
    _check_tol(tol)
    _object(obj, "morphism")
    try:
        rho = state_from_json(obj["source"])
        sigma = state_from_json(obj["target"])
        cpu = cpumap_from_json(obj["cpu"])
    except KeyError as exc:
        raise SerializationError("morphism payload needs 'source', 'target', 'cpu'") from exc
    if verify:
        return mk_morphism((rho.shape, rho), (sigma.shape, sigma), cpu, tol=tol)
    return NcpMorphism((rho.shape, rho), (sigma.shape, sigma), cpu)
