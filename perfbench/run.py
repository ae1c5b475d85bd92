"""Closed-loop benchmark of ncplab verdicts.

    python3 perfbench/run.py --workload abelian-bins --seed 1 --seconds 20 --trace 0

One client in one process sends the next job only when the previous verdict
is back.  Inputs are generated from ``--seed`` before timing starts; only the
calls into ncplab are timed, and every verdict is checked.  Jobs run in whole
cycles of the workload's fixed job lists until ``--seconds`` have passed and
at least the workload's minimum number of jobs have run.

``--trace 0`` prints the end-to-end metrics.  Their times are calibrated:
wall times rescaled by the speed of a fixed reference kernel timed between
jobs in the same run, so that a shared machine's slow and fast stretches
cancel; the wall figures are printed beside them.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, taken from the
traced rounds only, per round of the job list.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A run
record, and for ``--trace 1`` the span file, go to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()  # start of a fresh process's set-up

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("abelian-bins", "matrix-blocks", "small-batch")  # as in BENCHMARK.json

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
REF_NOMINAL_MS = 2.5  # reference kernel time at which calibrated times equal wall times
REF_EVERY_S = 0.25  # wall time between reference bursts in a loop
REF_REPS = 5  # kernel runs per burst


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict:
    """Run BLAS with one thread and leave NCP_LAB_THREADS unset.

    Runs before numpy is imported.  Returns what was set.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    removed = os.environ.pop("NCP_LAB_THREADS", None)
    return {
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "NCP_LAB_THREADS": "unset, so the tracial check runs with one worker"
        + ("" if removed is None else f" (removed {removed!r} from the environment)"),
    }


def set_up(workload: str, seed: int, workdir: Path):
    """Import ncplab from this checkout's ``src`` and nothing else, then
    generate the inputs; returns (workload, seconds since process start)."""
    if not (SRC / "ncplab" / "__init__.py").is_file():
        raise SetupError(f"no ncplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncplab
    import ncplab.cli  # noqa: F401

    if Path(ncplab.__file__).resolve().parent != (SRC / "ncplab").resolve():
        raise SetupError(f"ncplab imported from {ncplab.__file__}, not {SRC}")
    import bench_jobs

    workdir.mkdir(parents=True, exist_ok=True)
    built = bench_jobs.build(workload, seed, str(workdir))
    return built, time.perf_counter() - T0


def settle() -> None:
    """Move everything alive after set-up out of the collector's reach.

    A command-line user's process exits long before a full collection walks
    the numpy/scipy import graph; a long benchmark loop would pay for it.
    """
    gc.collect()
    gc.freeze()


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each importing ncplab and generating inputs."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# Machine-speed reference
# ---------------------------------------------------------------------------


class Reference:
    """A fixed kernel, timed in short bursts between jobs, that tracks the
    speed of a shared machine.

    The kernel mixes what ncplab's hot paths do: a Python loop over a dict,
    numpy calls on tiny arrays, a small dense eigenproblem and matrix product,
    and elementwise passes over a large array.  Its inputs are fixed, so
    every seed and every tree runs the same kernel.  A job's calibrated time
    is its wall time times ``scale(t)``: REF_NOMINAL_MS over the kernel's
    mean time in a burst, interpolated between the bursts on either side of
    the job's midpoint ``t``.  ``factor()`` is the same ratio over the whole
    run, printed for reference.  Means, not medians, so that time the process
    spends descheduled during a burst counts as it does in a job.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self.herm = g @ g.conj().T
        self.mat = rng.standard_normal((80, 80))
        self.tiny = rng.standard_normal(4)
        self.vec = rng.standard_normal(20000)
        self.last = -math.inf  # perf_counter at the end of the last burst
        self.ms: list[float] = []  # every timed kernel run
        self.at: list[float] = []  # midpoint of each burst
        self.burst_ms: list[float] = []  # mean kernel time of each burst
        for _ in range(3):  # warm-up: first calls into LAPACK and the allocator
            self.kernel()

    def kernel(self) -> None:
        np = self.np
        acc = {}
        for i in range(3000):
            acc[i % 61] = acc.get(i % 61, 0) + 3 * i
        for _ in range(150):
            float(np.dot(self.tiny, self.tiny)) + float(np.abs(self.tiny).max())
        np.linalg.eigh(self.herm)
        self.mat @ self.mat
        x = self.vec
        for _ in range(6):
            x = np.sqrt(x * x + 1.0)

    def burst(self, reps: int = REF_REPS) -> None:
        start = time.perf_counter()
        for _ in range(reps):
            t0 = time.perf_counter()
            self.kernel()
            self.ms.append(1e3 * (time.perf_counter() - t0))
        self.last = time.perf_counter()
        self.at.append((start + self.last) / 2)
        self.burst_ms.append(statistics.fmean(self.ms[-reps:]))

    def due(self) -> bool:
        return time.perf_counter() - self.last >= REF_EVERY_S

    def factor(self) -> float:
        return REF_NOMINAL_MS / statistics.fmean(self.ms)

    def scale(self, t: float) -> float:
        return REF_NOMINAL_MS / float(self.np.interp(t, self.at, self.burst_ms))


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs rounds of jobs; records each job's wall time and verdict."""

    def __init__(self, cycle, ref: Reference | None = None):
        self.cycle = cycle
        self.ref = ref  # bursts of the reference kernel run between jobs
        self.records: list[tuple[int, str, float, bool]] = []  # (id, name, wall_s, ok)
        self.mids: list[float] = []  # perf_counter at the middle of each job
        self.failures: list[dict] = []
        self.rounds = 0

    def round(self, index: int, recorder=None) -> float:
        """Run round ``index``'s job list; returns the summed wall time of its jobs."""
        total = 0.0
        for job in self.cycle[index % len(self.cycle)]:
            job_id = len(self.records)
            if recorder is not None:
                recorder.job = job_id
            if self.ref is not None and self.ref.due():
                self.ref.burst()
            reason = None
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # a raised job is a failed verdict, not a crash
                wall = time.perf_counter() - t0
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                wall = time.perf_counter() - t0
                try:
                    reason = job.check(result)
                except Exception as exc:  # malformed result
                    reason = f"check raised {type(exc).__name__}: {exc}"
            self.records.append((job_id, job.name, wall, reason is None))
            self.mids.append(t0 + wall / 2)
            if reason is not None:
                self.failures.append({"job": job.name, "id": job_id, "reason": reason})
            total += wall
        self.rounds += 1
        return total


def percentile(xs: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted ``xs`` and the number of samples beyond it."""
    idx = max(0, math.ceil(p / 100.0 * len(xs)) - 1)
    return xs[idx], len(xs) - 1 - idx


def reference_jobs(built) -> int:
    """Jobs in the fewest whole cycles that hold at least ``built.min_jobs``.

    Every run runs at least this many, and the tail percentile is chosen from
    this count, not from however many jobs fitted in ``--seconds``, so a
    faster or slower machine reports the same percentile.
    """
    per_cycle = len(built.jobs)
    return per_cycle * math.ceil(built.min_jobs / per_cycle)


def tail_percentile(count: int) -> float:
    """The highest listed percentile with at least TAIL_BEYOND of ``count``
    samples beyond it."""
    return max(p for p in PERCENTILES
               if p == 50 or count - math.ceil(p / 100.0 * count) >= TAIL_BEYOND)


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def git_sha() -> str:
    if (ROOT / ".git").exists():  # not a repository that merely encloses the checkout
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        except OSError:  # no git program
            proc = None
        if proc is not None and proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def metadata(args, threads: dict) -> dict:
    import numpy
    import scipy

    import ncplab

    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": "generated from the seed outside the timed region",
        "loop": "closed, 1 client, 1 process, whole rounds of the job list",
        "seconds": args.seconds,
        "ncplab": ncplab.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": nproc(),
        "git_sha": git_sha(),
        **threads,
    }


def emit(meta: dict, lines: list[str], record: dict, result: dict, name: str) -> None:
    with open(OUT / name, "w") as fh:
        json.dump({"meta": meta, **record, "result": result}, fh, indent=1)
    for key in ("seed", "inputs", "ncplab", "numpy", "scipy", "nproc", "git_sha",
                "blas_threads", "NCP_LAB_THREADS"):
        print(f"# {key}: {meta[key]}")
    for line in lines:
        print(line)
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def timing_metrics(walls: list[float], passed: int, pct: float, suffix: str) -> dict:
    walls = sorted(walls)
    return {
        f"verdicts_per_s{suffix}": {"value": passed / sum(walls), "unit": "1/s"},
        f"verdict_p50_ms{suffix}": {"value": 1e3 * percentile(walls, 50)[0], "unit": "ms"},
        f"verdict_tail_ms{suffix}": {"value": 1e3 * percentile(walls, pct)[0], "unit": "ms"},
    }


def untraced_run(args, built, meta) -> int:
    setup = setup_samples(args.workload, args.seed)
    ref = Reference()
    loop = Loop(built.cycle, ref)
    reference = reference_jobs(built)
    start = time.perf_counter()
    # Whole cycles only, so every run sees the same job mix.
    while (len(loop.records) < reference or loop.rounds % len(built.cycle)
           or time.perf_counter() - start < args.seconds):
        loop.round(loop.rounds)
    ref.burst()  # so that every job lies between two bursts
    factor = ref.factor()
    walls = [r[2] for r in loop.records]
    calibrated = [w * ref.scale(t) for w, t in zip(walls, loop.mids)]
    passed = sum(1 for r in loop.records if r[3])
    pct = tail_percentile(reference)
    beyond = percentile(sorted(walls), pct)[1]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    biggest = max(built.jobs, key=lambda j: j.computed_bytes)
    metrics = {
        **timing_metrics(calibrated, passed, pct, "_cal"),
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    wall_metrics = timing_metrics(walls, passed, pct, "")
    attempted, failed = len(loop.records), len(loop.failures)
    lines = [
        f"workload {args.workload}: {attempted} jobs in {loop.rounds} rounds of "
        f"{len(built.cycle[0])}, {sum(walls):.3f} s inside ncplab",
        *(f"{k:<20} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()),
        f"  calibrated: each job's wall time x the reference kernel's nominal "
        f"{REF_NOMINAL_MS} ms over its mean time in the bursts either side; "
        f"{len(ref.burst_ms)} bursts, {statistics.fmean(ref.ms):.4f} ms mean, so "
        f"x {factor:.4f} over the run",
        *(f"{k:<20} {v['value']:.6g} {v['unit']} (wall, not gated)" for k, v in wall_metrics.items()),
        f"  verdict_tail_ms(_cal) is p{pct:g} of {attempted} samples, {beyond} beyond it "
        f"(p{pct:g} is fixed by this workload's {reference} reference jobs)",
        f"  setup_s is the median of {len(setup)} fresh processes: "
        + ", ".join(f"{s:.4f}" for s in setup) + " s (wall, not calibrated)",
        f"  beside peak_rss_mb, largest dense object (computed, not allocated): "
        f"{biggest.computed_bytes / 1e6:.1f} MB in {biggest.name}",
        *(f"  skipped {s['job']}: computed {s['computed_bytes'] / 2**30:.1f} GiB "
          "exceeds the memory budget" for s in built.skipped),
        f"failed_frac      {failed / attempted:.6g} ({failed}/{attempted})",
        *(f"  FAILED {f['job']}: {f['reason']}" for f in loop.failures[:20]),
    ]
    per_job = {}
    for _, name, wall, _ok in loop.records:
        per_job.setdefault(name, []).append(wall)
    record = {
        "per_job_median_ms": {k: 1e3 * statistics.median(v) for k, v in per_job.items()},
        "computed_bytes": {j.name: j.computed_bytes for j in built.jobs},
        "skipped": built.skipped,
        "failures": loop.failures,
        "wall_metrics": wall_metrics,
        "setup_samples_s": setup,
        "calibration": {"nominal_ms": REF_NOMINAL_MS, "factor": factor,
                        "burst_ms": ref.burst_ms},
        "tail_percentile": pct,
        "failed_frac": failed / attempted,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    emit(meta, lines, record, result, f"{args.workload}-seed{args.seed}-trace0.json")
    return 0


def traced_run(args, built, meta) -> int:
    from bench_trace import COMPUTED_BYTES, LAYERS, Recorder

    rec = Recorder()
    loop = Loop(built.cycle)
    untraced_s = traced_s = 0.0
    traced_ids = set()
    pairs = 0
    start = time.perf_counter()
    # Whole cycles only, so per-round counts repeat exactly for a seed.
    while pairs % len(built.cycle) or time.perf_counter() - start < args.seconds:
        # The same round runs untraced, then traced, so the overhead compares like with like.
        untraced_s += loop.round(pairs)
        first = len(loop.records)
        rec.install()
        try:
            traced_s += loop.round(pairs, rec)
        finally:
            rec.uninstall()
        traced_ids.update(range(first, len(loop.records)))
        pairs += 1
    metrics = {}
    for name in rec.names:
        metrics[f"{name}.calls"] = {"value": rec.calls[name] / pairs, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": rec.self_s[name] / pairs, "unit": "s"}
        if name in COMPUTED_BYTES:
            metrics[f"{name}.bytes_max"] = {"value": rec.bytes_max[name], "unit": "bytes_computed"}
    for module in LAYERS:
        metrics[f"{module}.errors"] = {"value": rec.errors[module] / pairs, "unit": "count"}
    overhead = (traced_s - untraced_s) / untraced_s
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}

    attempted, failed = len(loop.records), len(loop.failures)
    lines = [
        f"workload {args.workload} (traced): {pairs} untraced and {pairs} traced rounds "
        f"of {len(built.cycle[0])} jobs; per-layer values are per round",
        f"trace.overhead_frac {overhead:.4f} (traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s)",
    ]
    for name in rec.names:
        if rec.calls[name]:
            extra = ""
            if name in COMPUTED_BYTES:
                extra = f" bytes_max {rec.bytes_max[name]} (computed)"
            lines.append(
                f"  {name:<46} calls {rec.calls[name] / pairs:10.1f}  "
                f"self_s {rec.self_s[name] / pairs:.6f}{extra}"
            )
    lines += [f"  {m}.errors {rec.errors[m] / pairs:g}" for m in LAYERS if rec.errors[m]]
    first_traced = {}
    for job_id, name, _wall, _ok in loop.records:
        if job_id in traced_ids:
            first_traced.setdefault(name, job_id)
    for name, job_id in first_traced.items():
        if name.startswith("petz-pullback"):
            lines.append(
                f"  job {name}: states.is_faithful.calls "
                f"{rec.calls_in_job('states.is_faithful', job_id)}, covariance.block_form.calls "
                f"{rec.calls_in_job('covariance.block_form', job_id)}"
            )
    lines.append(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    lines += [f"  FAILED {f['job']}: {f['reason']}" for f in loop.failures[:20]]

    trace_name = f"trace-{args.workload}-seed{args.seed}.json"
    rec.dump(
        OUT / trace_name,
        {**meta, "jobs": [[r[0], r[1]] for r in loop.records if r[0] in traced_ids]},
    )
    lines.append(f"spans: {len(rec.spans)} written to perfbench/out/{trace_name}")
    record = {"failures": loop.failures, "skipped": built.skipped,
              "untraced_s": untraced_s, "traced_s": traced_s}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    emit(meta, lines, record, result, f"{args.workload}-seed{args.seed}-trace1.json")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, print the set-up time, exit")
    args = parser.parse_args(argv)

    threads = pin_threads()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        built, own_setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        meta = metadata(args, threads)
        settle()
        if args.trace:
            return traced_run(args, built, meta)
        return untraced_run(args, built, meta)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
