"""Workloads: seeded inputs, the timed calls into ncplab, and expected verdicts.

Every input is generated here, from the seed, before anything is timed.  A
job's ``run`` holds only calls into ncplab's public API (or ``ncplab.cli.main``);
its ``check`` compares the result with a verdict taken from the paper's
statements and the acceptance thresholds, never with a snapshot of today's
output.  Job sizes are fixed per workload, so seeds change values, not cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

import ncplab
import ncplab.cli

KINDS = ("gns", "sld", "kmb", "wy", "rld")
PETZ_KINDS = KINDS[1:]
COMPLEX_BYTES = 16

#: Jobs whose largest dense object, computed from shapes, exceeds this are
#: recorded as skipped and never run.
MEMORY_BUDGET_BYTES = 2 * 1024**3

# Acceptance thresholds the verdicts are held to.
CONTRACTION_TOL = 1e-9  # operator_norm <= 1 + tol
MONOTONICITY_TOL = 1e-9  # exact_max_eig <= 1 + tol
GAUSSIAN_REL_TOL = 0.01  # binned normal vs Fisher-Rao at >= 4096 bins
COLLAPSE_REL_TOL = 1e-8  # Petz pullback vs classical Fisher information
QFI_TOL = 1e-8  # qubit QFI and round-sphere oracles
SIMPLEX_TOL = 1e-9  # simplex Fisher-Rao oracle
INVARIANCE_TOL = 1e-9  # congruence deviation and tracial collapse
COMPOSITION_TOL = 0.01  # generic affine Markov-map composition at 1024 bins
ALIGNED_TOL = 1e-10  # aligned-shift equivariance, interior bins


@dataclass
class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the verdict is the expected one, else a reason.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    computed_bytes: int = 0  # largest dense object, computed from shapes


@dataclass
class Workload:
    """``cycle[r % len(cycle)]`` is the job list of round r.

    A run holds at least ``min_jobs`` jobs, in whole cycles; that count also
    fixes which percentile the tail metric reports.
    """

    cycle: list[list[Job]]
    skipped: list[dict]
    min_jobs: int

    @property
    def jobs(self) -> list[Job]:
        return [job for jobs in self.cycle for job in jobs]


# ---------------------------------------------------------------------------
# Random inputs (numpy only)
# ---------------------------------------------------------------------------


def _kraus(rng, nb: int, na: int, count: int = 3) -> list[np.ndarray]:
    """Gaussian N_B x N_A Kraus family normalized to sum K^dag K = 1."""
    raw = [
        rng.standard_normal((nb, na)) + 1j * rng.standard_normal((nb, na))
        for _ in range(count)
    ]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in raw))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [k @ inv_sqrt for k in raw]


def _densities(rng, blocks, floor: float = 0.1, rank_one: bool = False) -> list[np.ndarray]:
    """Per-block densities with total trace one, eigenvalues bounded away
    from zero by ``floor`` (relative), or a single rank-one block."""
    mats = []
    for n in blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if rank_one:
            v = g[:, :1]
            mats.append(v @ v.conj().T)
        else:
            mats.append(g @ g.conj().T + floor * n * np.eye(n))
    total = sum(np.trace(m).real for m in mats)
    return [(m + m.conj().T) / (2.0 * total) for m in mats]


def _block_diag(mats) -> np.ndarray:
    size = sum(m.shape[0] for m in mats)
    out = np.zeros((size, size), dtype=complex)
    pos = 0
    for m in mats:
        n = m.shape[0]
        out[pos: pos + n, pos: pos + n] = m
        pos += n
    return out


def _pushed_densities(kraus, rho_blocks, target_blocks) -> list[np.ndarray]:
    """sigma = rho o phi for phi(b) = sum K^dag b K: the target-block
    pinching of sum K rho K^dag."""
    full = _block_diag(rho_blocks)
    pushed = sum(k @ full @ k.conj().T for k in kraus)
    out, pos = [], 0
    for n in target_blocks:
        d = pushed[pos: pos + n, pos: pos + n]
        out.append((d + d.conj().T) / 2.0)
        pos += n
    return out


def _refinement(rng, n_source: int):
    """Random congruent refinement: 1-3 cells per source point."""
    sizes = rng.integers(1, 4, size=n_source)
    partition = np.repeat(np.arange(n_source), sizes)
    weights = np.concatenate([rng.dirichlet(np.ones(s)) for s in sizes])
    return partition, weights


def _discrete_fisher(edges: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Classical Fisher information of the renormalized bin masses in (mu, sigma)."""
    z = (edges - mu) / sigma
    pdf = np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    p = np.diff(ndtr(z))
    total = p.sum()
    grads = []
    for d_raw in (-np.diff(pdf) / sigma, -np.diff(z * pdf) / sigma):
        grads.append((d_raw * total - p * d_raw.sum()) / total**2)
    q = p / total
    return np.array([[np.sum(a * b / q) for b in grads] for a in grads])


def _fisher_rao(sigma: float) -> np.ndarray:
    return np.diag([1.0 / sigma**2, 2.0 / sigma**2])


def _relative_error(g, oracle) -> float:
    denom = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    return float(np.max(np.abs(np.asarray(g) - oracle) / denom))


# ---------------------------------------------------------------------------
# abelian-bins: the K axis, every block 1x1
# ---------------------------------------------------------------------------


def _gns_pullback_job(rng, bins: int) -> Job:
    mu, sigma = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    lo, hi = mu - 10.0 * sigma, mu + 10.0 * sigma  # tail bins fall below the support cutoff

    def run():
        model = ncplab.models.gaussian_model(bins, lo, hi)
        return ncplab.metric_pullback(model, [mu, sigma])

    def check(g):
        err = _relative_error(g, _fisher_rao(sigma))
        return None if err <= GAUSSIAN_REL_TOL else f"relative error {err:.3e} vs Fisher-Rao"

    return Job(f"gns-pullback-{bins}", run, check)


def _petz_pullback_job(rng, kind_name: str, bins: int) -> Job:
    mu, sigma = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    lo, hi = mu - 5.5 * sigma, mu + 5.5 * sigma  # every bin above the support cutoff
    discrete = _discrete_fisher(np.linspace(lo, hi, bins + 1), mu, sigma)

    def run():
        model = ncplab.models.gaussian_model(bins, lo, hi)
        return ncplab.metric_pullback(model, [mu, sigma], ncplab.kind_from_name(kind_name))

    def check(g):
        # On an abelian (hence tracial) state every Petz product collapses onto
        # the GNS one, whose pullback is the classical Fisher information.
        collapse = _relative_error(g, discrete)
        if collapse > COLLAPSE_REL_TOL:
            return f"{kind_name}: relative gap {collapse:.3e} to the discrete Fisher information"
        err = _relative_error(g, _fisher_rao(sigma))
        return None if err <= GAUSSIAN_REL_TOL else f"relative error {err:.3e} vs Fisher-Rao"

    return Job(f"petz-pullback-{kind_name}-{bins}", run, check)


def _congruence_job(rng, bins: int) -> Job:
    partition, weights = _refinement(rng, bins)
    thetas = [[float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 1.2))] for _ in range(3)]
    cells = len(partition)

    def run():
        model = ncplab.models.gaussian_model(bins, -10.0, 10.0)
        emb = ncplab.congruent_embedding(partition, weights)
        return ncplab.congruence_invariance_check(model, emb, thetas, tol=INVARIANCE_TOL)

    def check(rep):
        dev = rep["max_metric_deviation"]
        ok = rep["passed"] and dev <= INVARIANCE_TOL
        return None if ok else f"metric deviation {dev:.3e} under refinement"

    return Job(f"congruence-{bins}", run, check, cells * bins * COMPLEX_BYTES)


def _equivariance_job(rng, bins: int, lo: float, hi: float) -> Job:
    width = (hi - lo) / bins
    shift = int(rng.choice([-1, 1])) * int(rng.integers(1, 9))
    g = (shift * width, 1.0)  # an aligned shift permutes bins exactly
    theta = [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.8, 1.5))]

    def run():
        gm = ncplab.gaussian_group_model(bins, lo, hi)
        return gm.equivariance_deviation(g, theta, interior=16)

    def check(dev):
        return None if dev <= ALIGNED_TOL else f"aligned-shift deviation {dev:.3e}"

    return Job(f"markov-equivariance-{bins}", run, check, bins * bins * COMPLEX_BYTES)


def _composition_job(rng, bins: int, lo: float, hi: float) -> Job:
    g = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 1.25)))
    g2 = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 1.25)))
    theta = [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.8, 1.5))]

    def run():
        gm = ncplab.gaussian_group_model(bins, lo, hi)
        return gm.composition_deviation(g, g2, theta)

    def check(dev):
        return None if dev <= COMPOSITION_TOL else f"composition gap {dev:.3e}"

    return Job(f"markov-composition-{bins}", run, check, bins * bins * COMPLEX_BYTES)


def _cp_embedding_job(rng, cells: int, points: int) -> Job:
    sizes = np.ones(points, dtype=int) + rng.multinomial(cells - points, np.ones(points) / points)
    partition = np.repeat(np.arange(points), sizes)
    weights = np.concatenate([rng.dirichlet(np.ones(s)) for s in sizes])
    choi_bytes = (cells * points) ** 2 * COMPLEX_BYTES

    def run():
        emb = ncplab.congruent_embedding(partition, weights)
        return ncplab.is_cp(emb), ncplab.is_unital(emb)

    def check(res):
        cp, unital = res
        return None if cp and unital else f"Markov embedding flagged cp={cp} unital={unital}"

    return Job(f"cp-embedding-{cells}", run, check, choi_bytes)


def abelian_bins(rng) -> list[list[Job]]:
    """Cheap jobs, a plateau of Petz pullbacks holding the median, and five
    6144-bin GNS pullbacks as the slowest third, so p50 and the tail each fall
    inside one group of like jobs rather than on a step between groups."""
    jobs = [
        _cp_embedding_job(rng, 36, 18),
        _composition_job(rng, 1024, -12.0, 12.0),
        _equivariance_job(rng, 1536, -12.0, 12.0),
        _gns_pullback_job(rng, 4096),
        _congruence_job(rng, 384),
    ]
    jobs += [_petz_pullback_job(rng, k, 208) for k in PETZ_KINDS]
    jobs += [_gns_pullback_job(rng, 6144) for _ in range(5)]
    # Dense Choi of a 256-cell embedding: 16 GiB, so it is only recorded.
    jobs.append(_cp_embedding_job(rng, 256, 128))
    return [jobs]


# ---------------------------------------------------------------------------
# matrix-blocks: the n axis, at most two blocks
# ---------------------------------------------------------------------------


def _morphism_job(rng, blocks: list[int], kind_name: str, seed: int) -> Job:
    n_total = sum(blocks)
    kraus = _kraus(rng, n_total, n_total)
    rho_blocks = _densities(rng, blocks)
    sigma_blocks = _pushed_densities(kraus, rho_blocks, blocks)
    action_bytes = sum(n * n for n in blocks) ** 2 * COMPLEX_BYTES

    def run():
        shape = ncplab.mk_shape(blocks)
        rho = ncplab.mk_state(shape, rho_blocks)
        sigma = ncplab.mk_state(shape, sigma_blocks)
        phi = ncplab.from_kraus(shape, shape, kraus)
        m = ncplab.mk_morphism((shape, rho), (shape, sigma), phi)
        rep = ncplab.monotonicity_check(
            ncplab.kind_from_name(kind_name), m, n_samples=100, seed=seed, tol=MONOTONICITY_TOL
        )
        contraction = ncplab.induced_contraction(
            m, ncplab.build_gns(shape, sigma), ncplab.build_gns(shape, rho)
        )
        return rep, contraction.operator_norm

    def check(res):
        rep, norm = res
        if not (rep["passed"] and rep["exact_max_eig"] <= 1.0 + MONOTONICITY_TOL):
            return f"{kind_name}: exact_max_eig {rep['exact_max_eig']!r}"
        if norm > 1.0 + CONTRACTION_TOL:
            return f"operator_norm {norm!r}"
        return None

    label = "x".join(str(n) for n in blocks)
    return Job(f"morphism-{label}-{kind_name}", run, check, action_bytes)


def matrix_blocks(rng) -> list[list[Job]]:
    """Six slots per round; slot i runs kind (i + r) mod 5 in round r, so five
    rounds cover every kind on every slot.  The [16] and [20] slots are
    doubled so that p50 falls inside the [16] jobs and the tail inside the
    [20] jobs."""
    slots = ([8], [12, 4], [16], [16], [20], [20])
    grid = [
        [_morphism_job(rng, blocks, kind, int(rng.integers(2**31))) for kind in KINDS]
        for blocks in slots
    ]
    return [
        [grid[i][(i + r) % len(KINDS)] for i in range(len(slots))] for r in range(len(KINDS))
    ]


# ---------------------------------------------------------------------------
# small-batch: ncplab.cli.main in-process on pre-written JSON
# ---------------------------------------------------------------------------


def _matrix_json(m) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(m)]


def _state_json(blocks, mats) -> dict:
    return {"shape": {"blocks": list(blocks)}, "densities": [_matrix_json(m) for m in mats]}


def _write(workdir: str, name: str, payload) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _transpose_action(n: int) -> np.ndarray:
    action = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            action[j * n + i, i * n + j] = 1.0
    return action


def _cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    """``ncplab.cli.main(argv)``, returning its exit code and captured report."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ncplab.cli.main(argv)
        return code, buf.getvalue()

    return run


def _without_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith('"timestamp"')
    )


def _cli_job(name: str, argv: list[str], code: int, verdict: Callable[[dict], str | None]) -> Job:
    first: list[str] = []

    def check(res):
        got, text = res
        if got != code:
            return f"exit code {got}, expected {code}"
        stable = _without_timestamp(text)
        if first and stable != first[0]:
            return "report differs from the first run beyond its timestamp"
        first[:1] = [stable]
        return verdict(json.loads(text))

    return Job(name, _cli_run(argv), check)


def _expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


def small_batch(rng, workdir: str) -> list[list[Job]]:
    jobs = []
    for blocks in ([2], [3], [1, 1], [2, 1], [2, 3]):
        mats = _densities(rng, blocks)
        if all(n == 1 for n in blocks):
            payload = {"prob": [float(m[0, 0].real) for m in mats]}
        else:
            payload = _state_json(blocks, mats)
        path = _write(workdir, f"state-{'x'.join(map(str, blocks))}.json", payload)
        dim = sum(n * n for n in blocks)  # faithful: the quotient is the whole algebra
        jobs.append(
            _cli_job(
                f"cli-gns-{'x'.join(map(str, blocks))}",
                ["gns", "--state", path],
                0,
                lambda rep, dim=dim: _expect(
                    rep["dim"] == dim and abs(rep["cyclic_norm"] - 1.0) <= 1e-9,
                    f"dim {rep['dim']} / cyclic norm {rep['cyclic_norm']!r}",
                ),
            )
        )

    src, dst = [2, 3], [2, 1]  # Heisenberg direction: phi maps [2,3] -> [2,1]
    kraus = _kraus(rng, sum(src), sum(dst))
    path = _write(
        workdir,
        "kraus.json",
        {"source": {"blocks": src}, "target": {"blocks": dst}, "kraus": [_matrix_json(k) for k in kraus]},
    )
    jobs.append(
        _cli_job(
            "cli-check-channel-kraus",
            ["check-channel", "--channel", path],
            0,
            lambda rep: _expect(rep["cp"] and rep["unital"], "Kraus map not CP+unital"),
        )
    )
    path = _write(
        workdir,
        "transpose.json",
        {"source": {"blocks": [3]}, "target": {"blocks": [3]}, "linear": _matrix_json(_transpose_action(3))},
    )
    jobs.append(
        _cli_job(
            "cli-check-channel-transpose",
            ["check-channel", "--channel", path],
            1,
            lambda rep: _expect(rep["cp"] is False, "transpose map passed the CP test"),
        )
    )

    rho_blocks = _densities(rng, dst)
    sigma_blocks = _pushed_densities(kraus, rho_blocks, src)
    morphism = _write(
        workdir,
        "morphism.json",
        {
            "source": _state_json(dst, rho_blocks),
            "target": _state_json(src, sigma_blocks),
            "cpu": {"source": {"blocks": src}, "target": {"blocks": dst}, "kraus": [_matrix_json(k) for k in kraus]},
        },
    )
    for kind in KINDS:
        jobs.append(
            _cli_job(
                f"cli-monotonicity-{kind}",
                ["monotonicity", "--kind", kind, "--morphism", morphism,
                 "--samples", "100", "--seed", str(int(rng.integers(1000)))],
                0,
                lambda rep: _expect(
                    rep["pass"] and rep["exact_max_eig"] <= 1.0 + MONOTONICITY_TOL,
                    f"exact_max_eig {rep['exact_max_eig']!r}",
                ),
            )
        )

    n = 3
    p = 0.85 * rng.dirichlet(np.ones(n + 1)) + 0.15 / (n + 1)
    qubit = [rng.uniform(0.05, 0.95), rng.uniform(0.15, np.pi - 0.15), rng.uniform(0.0, 2.0 * np.pi)]
    pure = [rng.uniform(0.1, np.pi - 0.1), rng.uniform(0.0, 2.0 * np.pi)]
    for model, theta, tol in (
        (f"simplex:{n}", p[:-1], SIMPLEX_TOL),
        ("qubit-faithful", qubit, QFI_TOL),
        ("qubit-pure", pure, QFI_TOL),
    ):
        jobs.append(
            _cli_job(
                f"cli-pullback-{model.split(':')[0]}",
                ["pullback", "--model", model, "--theta", ",".join(repr(float(x)) for x in theta)],
                0,
                lambda rep, tol=tol: _expect(
                    rep["oracle_deviation"] <= tol, f"oracle deviation {rep['oracle_deviation']!r}"
                ),
            )
        )

    jobs.append(
        _cli_job("cli-omf-catalog", ["omf-catalog"], 0, lambda rep: _expect(rep["pass"], "catalog failed"))
    )

    # A Petz kind at a rank-deficient state is unusable input: exit code 2.
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    pure_state = _densities(rng, [2], rank_one=True)
    rank_deficient = _write(
        workdir,
        "morphism-rank-deficient.json",
        {
            "source": _state_json([2], pure_state),
            "target": _state_json([2], _pushed_densities([u], pure_state, [2])),
            "cpu": {"source": {"blocks": [2]}, "target": {"blocks": [2]}, "kraus": [_matrix_json(u)]},
        },
    )
    jobs.append(
        _cli_job(
            "cli-monotonicity-rank-deficient",
            ["monotonicity", "--kind", "sld", "--morphism", rank_deficient],
            2,
            lambda rep: _expect("faithful" in rep.get("error", ""), f"unexpected report {rep}"),
        )
    )

    tracial = _cli_job(
        "cli-tracial-uniqueness",
        ["tracial-uniqueness", "--samples", "20", "--seed", str(int(rng.integers(1000)))],
        0,
        lambda rep: _expect(rep["max_deviation"] <= INVARIANCE_TOL, f"collapse gap {rep['max_deviation']!r}"),
    )
    congruence = _cli_job(
        "cli-congruence-invariance",
        ["congruence-invariance", "--model", "simplex:2", "--samples", "3",
         "--seed", str(int(rng.integers(1000)))],
        0,
        lambda rep: _expect(
            rep["max_metric_deviation"] <= INVARIANCE_TOL, f"deviation {rep['max_metric_deviation']!r}"
        ),
    )
    # The two slowest commands run once per three rounds, so the slowest one
    # holds about 2% of the jobs and the p99 tail falls inside its own times.
    return [jobs + [tracial], jobs + [congruence], jobs]


def build(workload: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's inputs from the seed; nothing here is timed."""
    rng = np.random.default_rng([seed, *workload.encode()])
    # 56 jobs (four abelian-bins rounds) and 90 (three matrix-blocks cycles)
    # put the tail at p75, inside the slowest group of like jobs.  small-batch
    # runs thousands of jobs in a run, and 1500 put its tail at p99, inside
    # the tracial-uniqueness times.
    if workload == "abelian-bins":
        cycle, min_jobs = abelian_bins(rng), 56
    elif workload == "matrix-blocks":
        cycle, min_jobs = matrix_blocks(rng), 90
    else:
        cycle, min_jobs = small_batch(rng, workdir), 1500
    skipped = [
        {"job": job.name, "status": "skipped", "computed_bytes": job.computed_bytes}
        for jobs in cycle
        for job in jobs
        if job.computed_bytes > MEMORY_BUDGET_BYTES
    ]
    kept = [[job for job in jobs if job.computed_bytes <= MEMORY_BUDGET_BYTES] for jobs in cycle]
    return Workload(kept, skipped, min_jobs)
