"""Per-block reference implementations of the batched state, GNS and pullback
code paths.

These are the straightforward loops over density blocks that the batched
(per-block-size) implementations in ``ncplab`` replace.  They are kept here,
and only here, so the batched code can be checked against them: one
eigendecomposition per block, one form and one least-squares solve per block,
and the covariance Gram assembled from the raw forms.
"""

from __future__ import annotations

import numpy as np

from ncplab.algebra import _wrap, hermitian_matrix_basis

SUPPORT_RTOL = 1e-9
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
RESIDUAL_TOL = 1e-8


def first_rejection(shape, densities):
    """("hermitian" | "psd", block) of the first block the per-block
    validation loop rejects, or None when every block passes."""
    for k, (n, d) in enumerate(zip(shape.blocks, densities)):
        arr = np.asarray(d, dtype=complex)
        herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
        if herm_dev > HERMITIAN_TOL:
            return ("hermitian", k)
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[0])
        if min_eig < -PSD_TOL:
            return ("psd", k)
    return None


def _phase_fix(vectors):
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        anchor = col[idx[0]] if idx.size else None
        if anchor is not None and abs(anchor) > 0:
            out[:, j] = col * (anchor.conjugate() / abs(anchor))
    return out


class RefGnsSpace:
    """GNS quotient built one density block at a time."""

    def __init__(self, shape, state, tol=SUPPORT_RTOL):
        self.shape = shape
        self.state = state
        eig_blocks = []
        for n, d in zip(shape.blocks, state.densities):
            if n == 1:
                w = np.array([float(d[0, 0].real)])
                v = np.ones((1, 1), dtype=complex)
            else:
                w, v = np.linalg.eigh((d + d.conj().T) / 2.0)
                w, v = w[::-1], _phase_fix(v[:, ::-1])
            eig_blocks.append((w, v))
        cutoff = tol * max(float(w[0]) for w, _ in eig_blocks)
        self.block_eigs, self.block_vecs = [], []
        for w, v in eig_blocks:
            keep = w > cutoff
            self.block_eigs.append(np.ascontiguousarray(w[keep], dtype=float))
            self.block_vecs.append(np.ascontiguousarray(v[:, keep]))
        eigs, blocks_idx, rows_idx, ranks_idx = [], [], [], []
        for k, (w, n) in enumerate(zip(self.block_eigs, shape.blocks)):
            r = w.size
            eigs.append(np.repeat(w[None, :], n, axis=0).ravel())
            blocks_idx.append(np.full(n * r, k))
            rows_idx.append(np.repeat(np.arange(n), r))
            ranks_idx.append(np.tile(np.arange(r), n))
        eigs = np.concatenate(eigs)
        self.perm = np.lexsort(
            (
                np.concatenate(ranks_idx),
                np.concatenate(rows_idx),
                np.concatenate(blocks_idx),
                -eigs,
            )
        )
        self.dim = int(eigs.size)
        self.gram_eigenvalues = eigs[self.perm]

    def embed(self, a):
        parts = []
        for x, w, v in zip(a.blocks, self.block_eigs, self.block_vecs):
            if w.size == 0:
                continue
            parts.append(((x @ v) * np.sqrt(w)[None, :]).ravel())
        if not parts:
            return np.zeros(0, dtype=complex)
        return np.concatenate(parts)[self.perm]

    def iso_matrix(self):
        offs = self.shape.block_offsets()
        rows = []
        for k, n in enumerate(self.shape.blocks):
            w, v = self.block_eigs[k], self.block_vecs[k]
            for i in range(n):
                for r in range(w.size):
                    row = np.zeros(self.shape.element_dim, dtype=complex)
                    row[offs[k] + i * n: offs[k] + (i + 1) * n] = np.sqrt(w[r]) * v[:, r]
                    rows.append(row)
        return np.array(rows)[self.perm]

    def rep_elements(self):
        raw = []
        for k, n in enumerate(self.shape.blocks):
            w, v = self.block_eigs[k], self.block_vecs[k]
            for i in range(n):
                for r in range(w.size):
                    mats = [np.zeros((m, m), dtype=complex) for m in self.shape.blocks]
                    mats[k][i, :] = v[:, r].conj() / np.sqrt(w[r])
                    raw.append(_wrap(self.shape, mats))
        return [raw[p] for p in self.perm]


def block_form(kind, space, k):
    n = space.shape.blocks[k]
    if kind.is_gns:
        b = np.kron(np.eye(n), space.state.densities[k].conj())
    else:
        w, v = space.block_eigs[k], space.block_vecs[k]
        weights = (w[None, :] * kind.omf(np.outer(w, 1.0 / w))).ravel()
        to_eig = np.kron(v.conj().T, v.T)
        b = to_eig.conj().T @ (weights[:, None] * to_eig)
    b = (b + b.conj().T) / 2.0
    return kind.scale * b


def covariance_gram(kind, space):
    """Covariance Gram in GNS coordinates through the raw forms: each block
    form applied to the raw coordinates of the representative elements."""
    reps = space.rep_elements()
    gram = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.shape.num_blocks):
        vecs = np.column_stack([r.blocks[k].ravel() for r in reps])
        gram += vecs.conj().T @ block_form(kind, space, k) @ vecs
    return (gram + gram.conj().T) / 2.0


def metric_pullback(model, theta, kind):
    """Pulled-back metric with one least-squares solve per block.

    Raises ``ValueError(param_index)`` when a differential has no Riesz
    representative.
    """
    state = model.state_at(theta)
    space = RefGnsSpace(model.shape, state)
    derivs = model.derivatives(theta)
    p = model.param_dim
    score_blocks = [[] for _ in range(p)]
    forms = []
    worst_resid = np.zeros(p)
    t_scale = 1.0
    for k, n in enumerate(model.shape.blocks):
        b = block_form(kind, space, k)
        forms.append(b)
        if n == 1:
            bb = float(b[0, 0].real)
            t = np.array([float(d.blocks[k][0, 0].real) for d in derivs])
            t_scale = max(t_scale, float(np.max(np.abs(t))))
            if bb > 0.0:
                c = t / bb
                resid = np.zeros(p)
            else:
                c = np.zeros(p)
                resid = np.abs(t)
            worst_resid = np.maximum(worst_resid, resid)
            for i in range(p):
                score_blocks[i].append(np.array([[c[i]]], dtype=complex))
            continue
        h = np.column_stack([m.ravel() for m in hermitian_matrix_basis(n)])
        a = (h.conj().T @ b @ h).real
        t = np.column_stack([(d.blocks[k].ravel().conj() @ h).real for d in derivs])
        t_scale = max(t_scale, float(np.max(np.abs(t))))
        c, *_ = np.linalg.lstsq(a, t, rcond=None)
        resid = np.max(np.abs(a @ c - t), axis=0)
        worst_resid = np.maximum(worst_resid, resid)
        for i in range(p):
            score_blocks[i].append((h @ c[:, i]).reshape(n, n))
    for i in range(p):
        if worst_resid[i] > RESIDUAL_TOL * t_scale:
            raise ValueError(i)
    g = np.zeros((p, p))
    for k, b in enumerate(forms):
        vecs = np.column_stack([blocks[k].ravel() for blocks in score_blocks])
        g += (vecs.conj().T @ b @ vecs).real
    return (g + g.T) / 2.0
