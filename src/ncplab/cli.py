"""Deterministic JSON-reporting command line front end.

Exit codes: 0 = all checked properties hold, 1 = a property failed (the
report carries the failing witnesses), 2 = unusable input: any
:class:`ncplab.InputError` (payloads, flag values, model parameters at which a
metric is not finite) or a file that cannot be read or written, 3 = internal
error: any other exception, reported with ``"internal_error": true`` and its
traceback on standard error.  Reports are strict JSON, every number in them
is finite, and they are byte-identical for identical configurations except
for the ``timestamp`` field.  Every subcommand runs on one thread.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from datetime import datetime, timezone

import numpy as np

from . import covariance, models
from .algebra import InputError, mk_shape
from .channels import _choi_test, is_unital
from .covariance import kind_from_name, omf_catalog
from .gns import build_gns
from .serialize import cpumap_from_json, morphism_from_json, state_from_json

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

# least --samples per subcommand: monotonicity's verdict is the exact criterion
MIN_SAMPLES = {"monotonicity": 0, "tracial-uniqueness": 1, "congruence-invariance": 1}

# exit code 2: every error a caller's input can cause is an InputError or an OSError
INPUT_ERRORS = (InputError, OSError)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"JSON in {path} is nested too deeply to decode") from exc


def _check_flags(args) -> None:
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"--tol must be finite and >= 0, got {tol}")
    # a relative cutoff >= 1 drops every eigenvalue, the unit's class (norm 1) included
    if args.command == "gns" and not tol < 1.0:
        raise InputError(f"--tol for gns must be < 1, got {tol}")
    least = MIN_SAMPLES.get(args.command)
    if least is not None and args.samples < least:
        raise InputError(f"--samples must be >= {least}, got {args.samples}")
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")


def _parse_model(spec: str) -> models.StatModel:
    parts = spec.split(":")
    try:
        if parts[0] == "simplex" and len(parts) == 2:
            return models.simplex_model(int(parts[1]))
        if parts[0] == "qubit-faithful" and len(parts) == 1:
            return models.qubit_faithful_model()
        if parts[0] == "qubit-pure" and len(parts) == 1:
            return models.qubit_pure_model()
        if parts[0] == "gaussian" and len(parts) in (2, 4):
            bins = int(parts[1])
            x_min, x_max = map(float, parts[2:]) if len(parts) == 4 else (-10.0, 10.0)
            return models.gaussian_model(bins, x_min, x_max)
    except ValueError as exc:
        raise InputError(f"bad model spec {spec!r}: {exc}") from exc
    raise InputError(
        f"unknown model spec {spec!r} "
        "(use simplex:N, qubit-faithful, qubit-pure, gaussian:BINS[:XMIN:XMAX])"
    )


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, report dict)
# ---------------------------------------------------------------------------


def _cmd_gns(args) -> tuple[int, dict]:
    state = state_from_json(_load_json(args.state))
    space = build_gns(state.shape, state, tol=args.tol)
    return EXIT_PASS, {
        "dim": space.dim,
        "gram_eigenvalues": [float(x) for x in space.gram_eigenvalues],
        "cyclic_norm": float(np.linalg.norm(space.cyclic)),
        "tol": args.tol,
    }


def _cmd_check_channel(args) -> tuple[int, dict]:
    phi = cpumap_from_json(_load_json(args.channel))
    (cp, min_eig, (k, l)), unital = _choi_test(phi, args.tol), is_unital(phi)
    report = {"cp": cp, "unital": unital, "min_choi_eig": min_eig, "tol": args.tol}
    if not cp:
        report["witness"] = {"source_block": k, "target_block": l}
    return (EXIT_PASS if (cp and unital) else EXIT_PROPERTY_FAILURE), report


def _cmd_monotonicity(args) -> tuple[int, dict]:
    kind = kind_from_name(args.kind)
    morphism = morphism_from_json(
        _load_json(args.morphism), tol=args.tol, verify=not args.assume_verified
    )
    report = covariance.monotonicity_check(
        kind, morphism, n_samples=args.samples, seed=args.seed, tol=args.tol
    )
    report["pass"] = report.pop("passed")
    code = EXIT_PASS if report["pass"] else EXIT_PROPERTY_FAILURE
    return code, report


def _cmd_pullback(args) -> tuple[int, dict]:
    model = _parse_model(args.model)
    if args.fd:
        model = models.finite_difference(model)
    kind = kind_from_name(args.kind)
    try:
        theta = np.array([float(x) for x in args.theta.split(",")])
    except ValueError as exc:
        raise InputError(f"bad --theta {args.theta!r}") from exc
    g = models.metric_pullback(model, theta, kind)
    report = {
        "model": model.name,
        "kind": kind.label,
        "theta": [float(x) for x in theta],
        "metric": [[float(x) for x in row] for row in g],
        "residual_tol": models.RESIDUAL_TOL,
    }
    oracle = model.reference_at(theta) if kind.is_gns else None
    if oracle is not None:
        report["oracle"] = [[float(x) for x in row] for row in oracle]
        report["oracle_deviation"] = float(np.max(np.abs(g - oracle)))
    return EXIT_PASS, report


def _cmd_gaussian_demo(args) -> tuple[int, dict]:
    span = 10.0 * args.sigma
    model = models.gaussian_model(args.bins, args.mu - span, args.mu + span)
    theta = np.array([args.mu, args.sigma])
    g = models.metric_pullback(model, theta)
    oracle = model.reference_at(theta)
    with np.errstate(all="ignore"):  # a reference that over- or underflows is caught below
        denom = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
        rel = float(np.max(np.abs(g - oracle) / denom))
    if not math.isfinite(rel):
        raise InputError(f"the relative error is not finite at theta={theta.tolist()}")
    return EXIT_PASS, {
        "bins": args.bins,
        "range": [args.mu - span, args.mu + span],
        "theta": [args.mu, args.sigma],
        "metric": [[float(x) for x in row] for row in g],
        "oracle": [[float(x) for x in row] for row in oracle],
        "relative_error": rel,
    }


def _cmd_tracial_uniqueness(args) -> tuple[int, dict]:
    shapes = [mk_shape([2]), mk_shape([3]), mk_shape([1, 1]), mk_shape([2, 3])]
    report = covariance.tracial_collapse_check(
        shapes, n_states=args.samples, seed=args.seed, tol=args.tol
    )
    report["pass"] = report.pop("passed")
    code = EXIT_PASS if report["pass"] else EXIT_PROPERTY_FAILURE
    return code, report


def _cmd_congruence_invariance(args) -> tuple[int, dict]:
    from .channels import congruent_embedding

    model = _parse_model(args.model)
    if not model.shape.is_abelian or model.interior is None:
        raise InputError("congruence invariance applies to abelian models only")
    rng = np.random.default_rng(args.seed)
    n = model.shape.num_blocks
    per_embedding = []
    for _ in range(args.samples):
        fiber_sizes = rng.integers(1, 4, size=n)
        partition = np.repeat(np.arange(n), fiber_sizes)
        weights = np.concatenate([rng.dirichlet(np.ones(sz)) for sz in fiber_sizes])
        emb = congruent_embedding(partition, weights)
        thetas = [model.interior(rng) for _ in range(3)]
        rep = models.congruence_invariance_check(model, emb, thetas, tol=args.tol)
        per_embedding.append(rep["max_metric_deviation"])
    worst = max(per_embedding, default=0.0)
    report = {
        "model": model.name,
        "n_embeddings": args.samples,
        "max_metric_deviation": worst,
        "per_embedding": per_embedding,
        "tol": args.tol,
        "pass": worst <= args.tol,
    }
    code = EXIT_PASS if report["pass"] else EXIT_PROPERTY_FAILURE
    return code, report


def _cmd_omf_catalog(_args) -> tuple[int, dict]:
    grid = np.geomspace(1e-6, 1e6, 1000)
    entries = []
    ok = True
    for f in omf_catalog():
        values = f(grid)
        monotone = bool(np.all(np.diff(values) > -1e-12))
        sym_dev = float(np.max(np.abs(values - grid * f(1.0 / grid))))
        entry = {
            "name": f.name,
            "value_at_1": float(f(1.0)),
            "normalized": f.normalized,
            "symmetric": f.symmetric,
            "monotone_on_grid": monotone,
            "symmetry_deviation": sym_dev,
        }
        ok = ok and monotone and abs(entry["value_at_1"] - 1.0) <= 1e-12
        entries.append(entry)
    report = {"catalog": entries, "pass": ok}
    return (EXIT_PASS if ok else EXIT_PROPERTY_FAILURE), report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Subcommand ``name`` is
    handled by the module's ``_cmd_<name>`` function, with dashes as
    underscores, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="ncplab",
        description="Verification workflows for states, channels, GNS spaces, "
        "covariance products, and model metric pullbacks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("gns", help="quotient dimensions and Gram spectrum of a state")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add_parser("check-channel", help="CP and unitality of a channel")
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add_parser("monotonicity", help="covariance contraction along a morphism")
    p.add_argument("--kind", default="gns", help="gns, sld, kmb, wy, or rld")
    p.add_argument("--morphism", required=True, help="morphism JSON file")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--assume-verified",
        action="store_true",
        help="skip CP/preservation verification of the carrier map (diagnostics)",
    )

    p = add_parser("pullback", help="metric pullback of a model at a point")
    p.add_argument("--model", required=True, help="simplex:N, qubit-faithful, qubit-pure, gaussian:BINS[:XMIN:XMAX]")
    p.add_argument("--theta", required=True, help="comma-separated parameters")
    p.add_argument("--kind", default="gns")
    p.add_argument("--fd", action="store_true", help="use finite-difference derivatives")

    p = add_parser("gaussian-demo", help="binned normal family vs closed form")
    p.add_argument("--bins", type=int, default=4096)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)

    p = add_parser("tracial-uniqueness", help="covariance collapse on tracial states")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add_parser("congruence-invariance", help="metric invariance under refinements")
    p.add_argument("--model", default="simplex:2")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)

    add_parser("omf-catalog", help="operator monotone function catalog")
    return parser


def _stamped(command: str, body: dict) -> dict:
    stamp = datetime.now(timezone.utc).isoformat()
    return {"schema": SCHEMA_VERSION, "command": command, **body, "timestamp": stamp}


def _emit(report: dict, out_path: str | None) -> bool:
    """Write ``report`` as strict JSON to ``out_path`` or standard output;
    False when that fails.  An unwritable ``out_path`` is reported on standard
    output (keeping the report's error and ``internal_error``), an unwritable
    standard output on standard error."""
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
            return True
        except OSError as exc:
            kept = {"internal_error": True} if report.get("internal_error") else {}
            error = "; ".join(filter(None, (report.get("error"), str(exc))))
            text = json.dumps(_stamped(report["command"], {"error": error, **kept}), indent=2) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        sys.stderr.write(f"cannot write the report to standard output: {exc}\n")
        return False
    return not out_path


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        code, body = globals()["_cmd_" + args.command.replace("-", "_")](args)
        return code if _emit(_stamped(args.command, body), args.out) else EXIT_INPUT_ERROR
    except INPUT_ERRORS as exc:
        code, body = EXIT_INPUT_ERROR, {"error": str(exc)}
    except Exception as exc:
        traceback.print_exc()
        code, body = EXIT_INTERNAL_ERROR, {"error": f"{type(exc).__name__}: {exc}", "internal_error": True}
    _emit(_stamped(args.command, body), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
