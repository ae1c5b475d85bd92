"""Per-block and per-basis-element reference implementations of the batched
state, GNS, contraction, Kraus and pullback code paths, and of the element
operations on per-block matrix lists.

These are the straightforward loops that the batched implementations in
``ncplab`` replace.  They are kept here, and only here, so the batched code
can be checked against them: one eigendecomposition per block, one form and
one least-squares solve per block, the covariance Gram assembled from the raw
forms, the induced contraction one GNS coordinate at a time and as the
product of the dense coordinate matrices, the monotonicity criterion as the
generalized eigenproblem of the two dense Grams and as the complex route
of its unfolded matrix, the Kraus
action one source basis element at a time and entrywise over the whole
family, the dense (N_B N_A)^2 Choi
matrix and its single eigensolve, the monotonicity samples one vector at a
time, and evaluation, the predual, the blockwise transpose, the
block-diagonal embedding and the bases one block (or one basis element of K
zero matrices) at a time.  A map is applied as the full dense product of
its action with the element's coordinates, so the reference Choi matrix and
contraction never run through ``channels.apply``.  Also the traciality
sweep over all pairs of basis elements, the bin-overlap Markov matrix of an
affine map with its boundary bookkeeping and as a dense CDF difference, the
trace-map Kraus operators
appended one matrix unit at a time, and the stochastic matrices of a
congruent embedding and its left inverse filled one cell at a time.  And
the GNS coordinate layout built eagerly, block by block, from a fresh
decomposition of the densities.

The last section holds small oracles that the package no longer offers: the
pre-inner product rho(a^dag b), the trace, a blockwise positivity test, the
entrywise traciality test, the spectral calculus f(A), the covariance
pairing of two elements, an element from its coordinates, and the Hermitian
matrix basis the per-block least-squares solve expands in.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ncplab import algebra, covariance, gns, states
from ncplab.algebra import _wrap
from ncplab.gns import GnsQuotientError, build_gns, embed

SUPPORT_RTOL = 1e-9
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
RESIDUAL_TOL = 1e-8


def _offsets(shape):
    return np.cumsum([0, *(n * n for n in shape.blocks)])


def basis(shape):
    """Matrix-unit basis, block-major then row-major, as per-block matrix lists."""
    out = []
    for k, n in enumerate(shape.blocks):
        for i in range(n):
            for j in range(n):
                mats = [np.zeros((m, m), dtype=complex) for m in shape.blocks]
                mats[k][i, j] = 1.0
                out.append(mats)
    return out


def embed_full(shape, blocks):
    """Per-block matrices as one block-diagonal matrix in the enveloping M_N."""
    N = shape.total_dim
    out = np.zeros((N, N), dtype=complex)
    pos = 0
    for x, n in zip(blocks, shape.blocks):
        out[pos: pos + n, pos: pos + n] = x
        pos += n
    return out


def transpose_action(shape):
    """Coordinate matrix of the blockwise transpose."""
    dim = shape.element_dim
    action = np.zeros((dim, dim), dtype=complex)
    offs = _offsets(shape)
    for k, n in enumerate(shape.blocks):
        for i in range(n):
            for j in range(n):
                action[offs[k] + j * n + i, offs[k] + i * n + j] = 1.0
    return action


def evaluate(densities, blocks):
    """sum_k Tr(D_k a_k), one block at a time."""
    return complex(sum(np.trace(d @ x) for d, x in zip(densities, blocks)))


def apply(phi, b):
    """phi(b) as the dense product of the whole action with b's coordinates,
    a CSR action made dense first."""
    action = phi.linear_action
    action = action if isinstance(action, np.ndarray) else action.toarray()
    return algebra._from_vec(phi.target_shape, action @ b.vec)


def predual_apply(phi, density_blocks):
    """The predual on per-block data, through the coordinates of the
    blockwise transposes."""
    vec_out = phi.linear_action.T @ np.concatenate([m.T.ravel() for m in density_blocks])
    offs = _offsets(phi.source_shape)
    return [
        vec_out[offs[k]: offs[k + 1]].reshape(n, n).T
        for k, n in enumerate(phi.source_shape.blocks)
    ]


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
        self.block_eigs, self.block_vecs, self.block_null_vecs = [], [], []
        for w, v in eig_blocks:
            keep = w > tol * float(w[0])  # each block against its own largest eigenvalue
            self.block_eigs.append(np.ascontiguousarray(w[keep], dtype=float))
            self.block_vecs.append(np.ascontiguousarray(v[:, keep]))
            self.block_null_vecs.append(np.ascontiguousarray(v[:, ~keep]))
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

    def rep_matrix(self):
        """element_dim x dim: the coordinates of the representatives, one per column."""
        return np.column_stack([x.vec for x in self.rep_elements()])

    def null_elements(self):
        """Basis of the Gelfand ideal (unit HS norm): row i of block k is a
        dropped eigenvector, conjugated."""
        out = []
        for k, n in enumerate(self.shape.blocks):
            nulls = self.block_null_vecs[k]
            for r in range(nulls.shape[1]):
                for i in range(n):
                    mats = [np.zeros((m, m), dtype=complex) for m in self.shape.blocks]
                    mats[k][i, :] = nulls[:, r].conj()
                    out.append(_wrap(self.shape, mats))
        return out

    def null_matrix(self):
        """element_dim x (element_dim - dim): the null elements' coordinates, one per column."""
        cols = [x.vec for x in self.null_elements()]
        return np.column_stack(cols) if cols else np.zeros((self.shape.element_dim, 0), complex)


def eager_gns_layout(shape, state, tol=SUPPORT_RTOL):
    """The GNS coordinate layout built eagerly from the densities:
    (blocks, cyclic, gram_eigenvalues), ``blocks[k]`` = (n, rank, kept
    places (n, rank)) of block k.  The densities of each size are stacked in
    block order and decomposed by one ``eigh`` call, as validation does, so
    the eigenpairs match the state's bit for bit without reading them off
    it.  One lexsort orders the kept entries (descending eigenvalue, then
    block, row, eigenvalue rank) and its inverse places them."""
    parts, keys = [], []
    for n in sorted(set(shape.blocks)):
        index = np.array([k for k, b in enumerate(shape.blocks) if b == n])
        d = np.stack([state.densities[k] for k in index])
        w, v = np.linalg.eigh((d + d.conj().swapaxes(-1, -2)) / 2.0)
        w, v = w[:, ::-1], algebra._phase_fix(v[:, :, ::-1])
        ranks = np.sum(w > tol * w[:, :1], axis=1)
        for k, r, wk, vk in zip(index.tolist(), ranks.tolist(), w, v):
            parts.append((k, n, r, wk, vk))
            i, c = np.indices((n, r)).reshape(2, -1)
            keys.append((c, i, np.full(c.size, k), wk[c]))
    *order_keys, eigs = map(np.concatenate, zip(*keys))
    order = np.lexsort((*order_keys, -eigs))
    dim = int(eigs.size)
    place = np.empty_like(order)
    place[order] = np.arange(dim)
    blocks = [None] * shape.num_blocks
    cyclic = np.empty(dim, dtype=complex)
    kept = 0
    for k, n, r, w, v in parts:
        at = place[kept: kept + n * r].reshape(n, r)
        kept += n * r
        blocks[k] = (n, r, at)
        cyclic[at] = v[:, :r] * np.sqrt(w[None, :r])
    return blocks, cyclic, eigs[order]


def induced_contraction(morphism, space_sigma, space_rho, tol=1e-8):
    """Contraction matrix built one GNS coordinate at a time: the carrier map
    applied to each null element and each representative of ``space_sigma``,
    each result embedded in ``space_rho``."""
    for x in space_sigma.null_elements():
        leak = float(np.linalg.norm(space_rho.embed(apply(morphism.cpu, x))))
        if leak > tol:
            raise GnsQuotientError(f"null element maps outside the null space (norm {leak:.3e})")
    return np.column_stack(
        [space_rho.embed(apply(morphism.cpu, rep)) for rep in space_sigma.rep_elements()]
    )


def dense_contraction(morphism, space_sigma, space_rho, tol=1e-8):
    """The contraction as the product of dense coordinate matrices,
    E_rho (L R_sigma), after the well-definedness check on the columns of
    E_rho L N_sigma."""
    action = morphism.cpu.linear_action
    action = action if isinstance(action, np.ndarray) else action.toarray()
    iso = space_rho.iso_matrix()
    leak = np.linalg.norm(iso @ (action @ space_sigma.null_matrix()), axis=0)
    worst = float(leak.max(initial=0.0))
    if not worst <= tol:
        raise GnsQuotientError(f"null element maps outside the null space (norm {worst:.3e})")
    return iso @ (action @ space_sigma.rep_matrix())


def monotonicity_dense(kind, morphism):
    """(exact_max_eig, pushed, g_sigma, contraction) of the dense route: the
    contraction C from the dense coordinate matrices, the two covariance
    Grams, pushed = C^dag G_rho C, and the top eigenvalue of the generalized
    problem (pushed, G_sigma) from scipy.linalg.eigh."""
    (shape_a, rho), (shape_b, sigma) = morphism.source, morphism.target
    c = dense_contraction(morphism, RefGnsSpace(shape_b, sigma), RefGnsSpace(shape_a, rho))
    g_rho = covariance.covariance_gram(kind, build_gns(shape_a, rho)).gram
    g_sigma = covariance.covariance_gram(kind, build_gns(shape_b, sigma)).gram
    pushed = c.conj().T @ g_rho @ c
    pushed = (pushed + pushed.conj().T) / 2.0
    exact = float(scipy.linalg.eigh(pushed, g_sigma, eigvals_only=True)[-1])
    return exact, pushed, g_sigma, c


def from_kraus_action(src, dst, kraus):
    """Kraus action one source basis element at a time: sum_k K_k^dag e K_k in
    the enveloping algebra, pinched onto the ``dst`` blocks."""
    starts = np.cumsum([0, *dst.blocks[:-1]])
    cols = []
    for e in basis(src):
        full = embed_full(src, e)
        out = sum(k.conj().T @ full @ k for k in kraus)
        cols.append(np.concatenate([out[p: p + n, p: p + n].ravel() for p, n in zip(starts, dst.blocks)]))
    return np.column_stack(cols)


def from_kraus_entrywise(src, dst, kraus):
    """The Kraus action read off entrywise: for a source matrix unit e_ij
    and a target position (a, b) of the enveloping algebras,
    phi(e_ij)_ab = sum_k conj(K_k[i, a]) K_k[j, b], gathered for every pair
    of coordinates at once and summed over the family in order."""
    (si, sj), (da, db) = src.full_positions, dst.full_positions
    total = np.zeros((src.element_dim, dst.element_dim), dtype=complex, order="F")
    for k in kraus:
        term = k[si].conj()[:, da]
        term *= k[sj][:, db]
        total += term
    return total.T


def choi(phi):
    """The dense normalized Choi matrix of the pinched extension of phi,
    (1/N_B) sum_ij e_ij (x) M(phi(E(e_ij))), one source matrix unit at a
    time: the (N_B N_A)^2 matrix whose diagonal blocks ``channels.choi``
    returns."""
    src, dst = phi.source_shape, phi.target_shape
    NB, NA = src.total_dim, dst.total_dim
    (si, sj), (da, db) = src.full_positions, dst.full_positions
    # entry (i*NA + a, j*NA + b) of C is entry [i, a, j, b] of this view
    C = np.zeros((NB, NA, NB, NA), dtype=complex)
    for q in range(src.element_dim):
        unit = np.zeros(src.element_dim)
        unit[q] = 1.0
        C[si[q], da, sj[q], db] = apply(phi, algebra._from_vec(src, unit)).vec
    return C.reshape(NB * NA, NB * NA) / NB


def choi_test(phi, tol):
    """(CP verdict, min eigenvalue of the Hermitian part) of the dense Choi
    matrix, the tolerance scaled by its trace."""
    c = choi(phi)
    herm_dev = float(np.max(np.abs(c - c.conj().T)))
    scale = max(1.0, abs(float(np.trace(c).real)))
    min_eig = float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
    return herm_dev <= tol * scale and min_eig >= -tol * scale, min_eig


def monotonicity_samples(pushed, g_sigma, n_samples, seed, tol):
    """(worst ratio, violations) of ``covariance.monotonicity_check``'s
    sampling, one random vector at a time."""
    rng = np.random.default_rng(seed)
    d = g_sigma.shape[0]
    worst, violations = 0.0, 0
    for _ in range(n_samples):
        xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lhs = float((xi.conj() @ pushed @ xi).real)
        rhs = float((xi.conj() @ g_sigma @ xi).real)
        worst = max(worst, lhs / rhs)
        if lhs > rhs + tol * float((xi.conj() @ xi).real):
            violations += 1
    return worst, violations


def monotonicity_unfolded(kind, morphism, n_samples, seed, tol=1e-9):
    """``covariance.monotonicity_check``'s report on the complex route of the
    unfolded criterion, the route it took for a kernel that is not symmetric
    before it folded every Petz kind's criterion: M = Z_rho C Z_sigma^-1 as
    the carrier's images scaled by sqrt(W^rho_aq) / sqrt(W^sigma_bp), the
    samples |M eta|^2, one complex Gram M^dag M, and the witness taken back
    through the whitening alone."""
    (shape_a, rho), (shape_b, sigma) = morphism.source, morphism.target
    space_sigma, space_rho = build_gns(shape_b, sigma), build_gns(shape_a, rho)
    m = gns._images(morphism.cpu, space_sigma, space_rho)
    kernels = [[covariance._kernel(kind, g) for g in space._groups] for space in (space_sigma, space_rho)]
    scale_sigma, scale_rho = (
        np.concatenate([np.sqrt(g.d[:, None] * f).ravel() for g, f in zip(space._groups, fs)])
        for space, fs in zip((space_sigma, space_rho), kernels)
    )
    m *= scale_rho[:, None]
    m *= 1.0 / scale_sigma
    draws = np.random.default_rng(seed).standard_normal((n_samples, 2, space_sigma.dim))
    xi = (draws[:, 0] + 1j * draws[:, 1]).T
    eta = covariance._whiten(kernels[0], space_sigma, xi)
    rhs, norms = (np.sum(np.abs(v) ** 2, axis=0) for v in (eta, xi))
    lhs = np.sum(np.abs(m @ eta) ** 2, axis=0)
    exact, top = gns._top_gram_eig(gns._gram(m), gns._whitened_unit(space_sigma), vector=True)
    report = {
        "kind": kind.label,
        "n_samples": n_samples,
        "worst_ratio": float(np.max(lhs / rhs, initial=0.0)),
        "exact_max_eig": exact,
        "sample_violations": int(np.count_nonzero(lhs > rhs + tol * norms)),
        "tol": tol,
        "passed": exact <= 1.0 + tol,
    }
    if not report["passed"]:
        vec = covariance._whiten(kernels[0], space_sigma, top[:, None], inverse=True)
        vec = algebra._phase_fix(vec[None] / np.linalg.norm(vec))[0, :, 0]
        report["witness"] = {"vector": vec, "ratio": exact}
    return report


def block_form(kind, space, k):
    n = space.shape.blocks[k]
    if kind.is_gns:
        b = np.kron(np.eye(n), space.state.densities[k].conj())
    else:
        w, v = space.block_eigs[k], space.block_vecs[k]
        weights = (w[None, :] * kind(np.outer(w, 1.0 / w))).ravel()
        to_eig = np.kron(v.conj().T, v.T)
        b = to_eig.conj().T @ (weights[:, None] * to_eig)
    b = (b + b.conj().T) / 2.0
    return b


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


def is_tracial_commutator_sweep(rho, tol):
    """rho(ab) == rho(ba) within ``tol`` on every pair of basis elements."""
    es = algebra.basis(rho.shape)
    for i, a in enumerate(es):
        for b in es[i + 1:]:
            ab, ba = algebra.multiply(a, b), algebra.multiply(b, a)
            dev = abs(states.evaluate(rho, ab) - states.evaluate(rho, ba))
            if dev > tol:
                return False
    return True


def affine_bin_overlap_stochastic(edges, mu, s):
    """Column-stochastic bin-overlap matrix of x -> s x + mu, from the
    pairwise interval overlaps plus the uncovered mass below and above the
    range, clamped to the boundary bins."""
    lo = s * edges[:-1] + mu
    hi = s * edges[1:] + mu
    width = hi - lo
    left = np.maximum(lo[:, None], edges[None, :-1])
    right = np.minimum(hi[:, None], edges[None, 1:])
    overlap = np.clip(right - left, 0.0, None) / width[:, None]  # (i, j)
    covered = overlap.sum(axis=1)
    below = np.clip(edges[0] - lo, 0.0, None) / width
    overlap[:, 0] += np.minimum(below, 1.0 - covered)
    overlap[:, -1] += 1.0 - covered - np.minimum(below, 1.0 - covered)
    return overlap.T  # (j, i): columns indexed by source bin


def affine_cdf_stochastic(edges, mu, s):
    """The same matrix as the difference, between consecutive target edges,
    of each image's clipped uniform CDF, evaluated on every edge: the dense
    (n+1) x n formula that the band build reproduces entry for entry."""
    lo = s * edges[:-1] + mu
    width = s * edges[1:] + mu - lo
    at = np.concatenate([[-np.inf], edges[1:-1], [np.inf]])
    return np.diff(np.clip((at[:, None] - lo) / width, 0.0, 1.0), axis=0)


def trace_mixed_kraus(kraus, NB, NA, lam):
    """The Kraus family scaled by sqrt(1 - lam), followed by the trace map's
    operators sqrt(lam / NB) e_ij, one matrix unit at a time."""
    ks = [np.sqrt(1.0 - lam) * k for k in kraus]
    for i in range(NB):
        for j in range(NA):
            t = np.zeros((NB, NA), dtype=complex)
            t[i, j] = np.sqrt(lam / NB)
            ks.append(t)
    return ks


def embedding_stochastic(partition, weights):
    """Stochastic matrices (S, L) of the congruent embedding that gives cell i
    the share weights[i] of point partition[i], and of its fiber-summing left
    inverse, one cell at a time."""
    m, n = len(partition), max(partition) + 1
    S, L = np.zeros((m, n)), np.zeros((n, m))
    for i, j in enumerate(partition):
        S[i, j] = weights[i]
        L[j, i] = 1.0
    return S, L


# ---------------------------------------------------------------------------
# Oracles the package no longer offers
# ---------------------------------------------------------------------------


def element_from_coords(shape, vec):
    """The element with coordinate vector ``vec`` (copied)."""
    vec = np.array(vec, dtype=complex)
    assert vec.shape == (shape.element_dim,)
    return algebra._from_vec(shape, vec)


def trace_functional(a):
    """Un-normalized trace, summed over blocks."""
    return complex(sum(np.trace(x) for x in a.blocks))


def is_positive(a, tol=1e-10):
    """True iff every block is Hermitian within tol with min eigenvalue >= -tol."""
    for x in a.blocks:
        if np.max(np.abs(x - x.conj().T)) > tol:
            return False
        if np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0] < -tol:
            return False
    return True


def is_tracial(rho, tol=1e-9):
    """rho(ab) == rho(ba) within ``tol`` for all a, b, read off each block's
    entries: on e_ij and e_ji of a density block D the gap is D_ii - D_jj,
    on other pairs an off-diagonal entry or zero."""
    for n, _, pos in rho.shape.size_positions:
        d = rho.vec[pos]
        diag = np.diagonal(d, axis1=1, axis2=2)
        gaps = np.maximum(np.abs(d), np.abs(diag[:, :, None] - diag[:, None, :]))
        if np.max(gaps[:, ~np.eye(n, dtype=bool)], initial=0.0) > tol:
            return False
    return True


def inner(space, a, b):
    """The GNS pre-inner product <a|b> = rho(a^dag b)."""
    return states.evaluate(space.state, algebra.multiply(algebra.adjoint(a), b))


def matrix_apply(f, a):
    """Spectral calculus f(A) for a Hermitian matrix with positive spectrum."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return v @ np.diag(f(w)) @ v.conj().T


def covariance_eval(kind, space, x, y):
    """Covariance pairing of two elements: their GNS coordinates paired
    through the package's covariance Gram."""
    gram = covariance.covariance_gram(kind, space).gram
    return complex(embed(space, x).conj() @ gram @ embed(space, y))


def hermitian_matrix_basis(n):
    """Real basis of the Hermitian n x n matrices, HS-orthonormal.

    Order: diagonal units E_aa, then for each a<b the symmetric and
    antisymmetric combinations (E_ab + E_ba)/sqrt(2), i(E_ba - E_ab)/sqrt(2).
    """
    out = []
    for a in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[a, a] = 1.0
        out.append(m)
    s = 1.0 / np.sqrt(2.0)
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = s
            m[b, a] = s
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = -1j * s
            m[b, a] = 1j * s
            out.append(m)
    return out
