"""Deterministic JSON-reporting command line front end.

Exit codes: 0 = all checked properties hold, 1 = a property failed (the
report carries the failing witnesses), 2 = unusable input.  Reports are
byte-identical for identical configurations except for the ``timestamp``
field.  Every subcommand runs on one thread, within any NCP_LAB_THREADS cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import covariance, models
from .channels import ChannelValidationError, MorphismValidationError, is_cp, is_unital, min_choi_eig
from .covariance import kind_from_name, omf_catalog
from .gns import GnsQuotientError, build_gns
from .models import ModelDomainError
from .serialize import (
    SerializationError,
    cpumap_from_json,
    morphism_from_json,
    state_from_json,
)
from .states import StateValidationError

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    """Anything wrong with files, JSON, or flag values."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _parse_model(spec: str, fd: bool = False) -> models.StatModel:
    mode = "fd" if fd else "analytic"
    parts = spec.split(":")
    try:
        if parts[0] == "simplex" and len(parts) == 2:
            return models.simplex_model(int(parts[1]), derivative_mode=mode)
        if parts[0] == "qubit-faithful" and len(parts) == 1:
            return models.qubit_faithful_model(derivative_mode=mode)
        if parts[0] == "qubit-pure" and len(parts) == 1:
            return models.qubit_pure_model(derivative_mode=mode)
        if parts[0] == "gaussian" and len(parts) in (2, 4):
            bins = int(parts[1])
            if len(parts) == 4:
                x_min, x_max = float(parts[2]), float(parts[3])
            else:
                x_min, x_max = -10.0, 10.0
            return models.gaussian_model(bins, x_min, x_max, derivative_mode=mode)
    except ValueError as exc:
        raise InputError(f"bad model spec {spec!r}: {exc}") from exc
    raise InputError(
        f"unknown model spec {spec!r} "
        "(use simplex:N, qubit-faithful, qubit-pure, gaussian:BINS[:XMIN:XMAX])"
    )


def _oracle_for(model_name: str, theta: np.ndarray):
    refs = models.analytic_references()
    if model_name.startswith("simplex"):
        return refs["simplex"](theta)
    if model_name.startswith("gaussian"):
        return refs["gaussian"](theta[0], theta[1])
    if model_name == "qubit-faithful":
        return refs["qubit-faithful"](*theta)
    if model_name == "qubit-pure":
        return refs["qubit-pure"](*theta)
    return None


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, report dict)
# ---------------------------------------------------------------------------


def _cmd_gns(args) -> tuple[int, dict]:
    state = state_from_json(_load_json(args.state))
    space = build_gns(state.shape, state, tol=args.tol)
    report = {
        "dim": space.dim,
        "gram_eigenvalues": [float(x) for x in space.gram_eigenvalues],
        "cyclic_norm": float(np.linalg.norm(space.cyclic)),
        "tol": args.tol,
    }
    return EXIT_PASS, report


def _cmd_check_channel(args) -> tuple[int, dict]:
    phi = cpumap_from_json(_load_json(args.channel))
    cp = is_cp(phi, tol=args.tol)
    unital = is_unital(phi)
    report = {
        "cp": cp,
        "unital": unital,
        "min_choi_eig": min_choi_eig(phi),
        "tol": args.tol,
    }
    code = EXIT_PASS if (cp and unital) else EXIT_PROPERTY_FAILURE
    return code, report


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
    model = _parse_model(args.model, fd=args.fd)
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
    oracle = _oracle_for(model.name, theta) if kind.is_gns else None
    if oracle is not None:
        report["oracle"] = [[float(x) for x in row] for row in oracle]
        report["oracle_deviation"] = float(np.max(np.abs(g - oracle)))
    return EXIT_PASS, report


def _cmd_gaussian_demo(args) -> tuple[int, dict]:
    span = 10.0 * args.sigma
    try:
        model = models.gaussian_model(args.bins, args.mu - span, args.mu + span)
    except ValueError as exc:
        raise InputError(f"bad --bins, --mu or --sigma: {exc}") from exc
    theta = np.array([args.mu, args.sigma])
    g = models.metric_pullback(model, theta)
    oracle = models.gaussian_fisher_rao_metric(args.mu, args.sigma)
    denom = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    rel = float(np.max(np.abs(g - oracle) / denom))
    report = {
        "bins": args.bins,
        "range": [args.mu - span, args.mu + span],
        "theta": [args.mu, args.sigma],
        "metric": [[float(x) for x in row] for row in g],
        "oracle": [[float(x) for x in row] for row in oracle],
        "relative_error": rel,
    }
    return EXIT_PASS, report


def _cmd_tracial_uniqueness(args) -> tuple[int, dict]:
    from .algebra import mk_shape

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
    if not model.shape.is_abelian:
        raise InputError("congruence invariance applies to abelian models only")
    rng = np.random.default_rng(args.seed)
    n = model.shape.num_blocks
    worst = 0.0
    per_embedding = []
    for _ in range(args.samples):
        fiber_sizes = rng.integers(1, 4, size=n)
        partition = np.repeat(np.arange(n), fiber_sizes)
        weights = np.concatenate(
            [rng.dirichlet(np.ones(sz)) for sz in fiber_sizes]
        )
        emb = congruent_embedding(partition, weights)
        thetas = [_random_interior_theta(model, rng) for _ in range(3)]
        rep = models.congruence_invariance_check(model, emb, thetas, tol=args.tol)
        per_embedding.append(rep["max_metric_deviation"])
        worst = max(worst, rep["max_metric_deviation"])
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


def _random_interior_theta(model: models.StatModel, rng) -> np.ndarray:
    if model.name.startswith("simplex"):
        p = rng.dirichlet(np.ones(model.param_dim + 1))
        p = 0.9 * p + 0.1 / (model.param_dim + 1)
        return p[:-1]
    if model.name.startswith("gaussian"):
        return np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.2)])
    raise InputError(f"no interior sampler for model {model.name}")


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


def _build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(handler=_cmd_gns)

    p = add_parser("check-channel", help="CP and unitality of a channel")
    p.add_argument("--channel", required=True, help="channel JSON file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_check_channel)

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
    p.set_defaults(handler=_cmd_monotonicity)

    p = add_parser("pullback", help="metric pullback of a model at a point")
    p.add_argument("--model", required=True, help="simplex:N, qubit-faithful, qubit-pure, gaussian:BINS[:XMIN:XMAX]")
    p.add_argument("--theta", required=True, help="comma-separated parameters")
    p.add_argument("--kind", default="gns")
    p.add_argument("--fd", action="store_true", help="use finite-difference derivatives")
    p.set_defaults(handler=_cmd_pullback)

    p = add_parser("gaussian-demo", help="binned normal family vs closed form")
    p.add_argument("--bins", type=int, default=4096)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(handler=_cmd_gaussian_demo)

    p = add_parser("tracial-uniqueness", help="covariance collapse on tracial states")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_tracial_uniqueness)

    p = add_parser("congruence-invariance", help="metric invariance under refinements")
    p.add_argument("--model", default="simplex:2")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_congruence_invariance)

    p = add_parser("omf-catalog", help="operator monotone function catalog")
    p.set_defaults(handler=_cmd_omf_catalog)

    return parser


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, body = args.handler(args)
    except (
        InputError,
        SerializationError,
        StateValidationError,
        ChannelValidationError,
        MorphismValidationError,
        ModelDomainError,
        GnsQuotientError,
        covariance.UnsupportedKindError,
        OSError,
    ) as exc:
        report = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "error": str(exc),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        _emit(report, args.out)
        return EXIT_INPUT_ERROR
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        **body,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
