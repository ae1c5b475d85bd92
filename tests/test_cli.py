import argparse
import contextlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depolarizing_kraus
from ncplab.algebra import mk_shape
from ncplab.channels import from_kraus, identity_map, identity_morphism, mk_morphism, predual, transpose_map
import ncplab
from ncplab import algebra, channels, cli, covariance, gns, models, serialize, states
from ncplab.cli import main
from ncplab.serialize import cpumap_to_json, morphism_to_json, state_to_json
from ncplab.states import mk_state, random_state


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, json.loads(out.read_text())


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def qubit_state_file(tmp_path):
    rho = mk_state(mk_shape([2]), [np.diag([0.75, 0.25])])
    return write_json(tmp_path, "state.json", state_to_json(rho))


@pytest.fixture
def transpose_morphism_file(tmp_path):
    # unital and state-preserving on a diagonal state, but not CP: the
    # canonical corrupted fixture for negative paths
    rho = mk_state(mk_shape([2]), [np.diag([0.75, 0.25])])
    payload = {
        "source": state_to_json(rho),
        "target": state_to_json(rho),
        "cpu": cpumap_to_json(transpose_map(mk_shape([2]))),
    }
    return write_json(tmp_path, "bad_morphism.json", payload)


class TestGnsCommand:
    def test_report_fields(self, tmp_path, qubit_state_file):
        code, rep = run_cli(["gns", "--state", qubit_state_file], tmp_path)
        assert code == 0
        assert rep["schema"] == 1
        assert rep["dim"] == 4
        assert abs(rep["cyclic_norm"] - 1.0) < 1e-10
        assert rep["gram_eigenvalues"] == [0.75, 0.75, 0.25, 0.25]
        assert "tol" in rep

    def test_prob_shorthand(self, tmp_path):
        path = write_json(tmp_path, "p.json", {"prob": [0.5, 0.5]})
        code, rep = run_cli(["gns", "--state", path], tmp_path)
        assert code == 0
        assert rep["dim"] == 2

    def test_non_finite_prob_is_input_error(self, tmp_path):
        path = write_json(tmp_path, "p.json", {"prob": [float("nan"), 0.5]})
        code, rep = run_cli(["gns", "--state", path], tmp_path)
        assert code == 2
        assert "density block 0 is not finite" in rep["error"]


class TestCheckChannel:
    def test_identity_passes(self, tmp_path):
        path = write_json(
            tmp_path, "chan.json", cpumap_to_json(identity_map(mk_shape([2])))
        )
        code, rep = run_cli(["check-channel", "--channel", path], tmp_path)
        assert code == 0
        assert rep["cp"] is True and rep["unital"] is True

    def test_transpose_fails(self, tmp_path):
        path = write_json(
            tmp_path, "chan.json", cpumap_to_json(transpose_map(mk_shape([2])))
        )
        code, rep = run_cli(["check-channel", "--channel", path], tmp_path)
        assert code == 1
        assert rep["cp"] is False
        assert abs(rep["min_choi_eig"] + 0.5) < 1e-12
        witness = rep["witness"]
        assert (witness["source_block"], witness["target_block"]) == (0, 0)
        # the Choi eigenvector at the minimum, in the block's (i, a) order
        v = np.array([complex(z["re"], z["im"]) for z in witness["vector"]])
        (cls,) = channels.choi(transpose_map(mk_shape([2])))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert abs(np.vdot(v, cls.blocks[0] @ v) + 0.5) < 1e-12

    def test_transpose_witness_names_the_matrix_block(self, tmp_path):
        path = write_json(
            tmp_path, "chan.json", cpumap_to_json(transpose_map(mk_shape([1, 2])))
        )
        code, rep = run_cli(["check-channel", "--channel", path], tmp_path)
        assert code == 1
        witness = rep["witness"]
        assert (witness["source_block"], witness["target_block"]) == (1, 1)
        assert len(witness["vector"]) == 4

    def test_one_choi_matrix_per_verdict(self, tmp_path, monkeypatch):
        calls = []
        original = channels.choi
        monkeypatch.setattr(channels, "choi", lambda phi: calls.append(phi) or original(phi))
        path = write_json(
            tmp_path, "chan.json", cpumap_to_json(identity_map(mk_shape([2])))
        )
        code, rep = run_cli(["check-channel", "--channel", path], tmp_path)
        assert code == 0 and rep["min_choi_eig"] >= -1e-12
        assert len(calls) == 1
        # a CP map's report carries no witness
        fields = {"schema", "command", "timestamp", "provenance", "cp", "unital", "min_choi_eig", "tol"}
        assert set(rep) == fields

    def test_stochastic_witness_from_the_csr_entries(self, tmp_path):
        # within the -1e-12 floor of a Markov map, but below a zero tolerance:
        # entry S[1, 0] is the 1 x 1 Choi block of source point 1 and target point 0
        payload = {"stochastic": [[1.0 + 1e-13, 0.5], [-1e-13, 0.5]]}
        path = write_json(tmp_path, "chan.json", payload)
        code, rep = run_cli(["check-channel", "--channel", path, "--tol", "0"], tmp_path)
        assert code == 1 and rep["cp"] is False and rep["unital"] is True
        assert rep["min_choi_eig"] == -1e-13 / 2
        one = {"re": 1.0, "im": 0.0}  # a 1 x 1 block's eigenvector
        assert rep["witness"] == {"source_block": 1, "target_block": 0, "vector": [one]}
        code, rep = run_cli(["check-channel", "--channel", path], tmp_path)
        assert code == 0 and rep["cp"] is True and "witness" not in rep

    def test_non_finite_stochastic_is_input_error(self, tmp_path):
        path = write_json(tmp_path, "chan.json", {"stochastic": [[float("nan"), 0.5], [0.5, 0.5]]})
        code, rep = run_cli(["check-channel", "--channel", path], tmp_path)
        assert code == 2
        assert "not finite" in rep["error"]


class TestMonotonicity:
    def test_valid_morphism_passes(self, tmp_path):
        shape = mk_shape([2])
        phi = from_kraus(shape, shape, depolarizing_kraus(0.5))
        rho = random_state(shape, faithful=True, seed=0)
        sigma = predual(phi, rho)
        from ncplab.channels import mk_morphism

        m = mk_morphism((shape, rho), (shape, sigma), phi)
        path = write_json(tmp_path, "m.json", morphism_to_json(m))
        code, rep = run_cli(
            ["monotonicity", "--kind", "sld", "--morphism", path, "--samples", "50", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        assert rep["pass"] is True
        assert rep["exact_max_eig"] <= 1.0 + 1e-9
        assert "witness" not in rep

    def test_corrupted_map_fails_with_witness(self, tmp_path, transpose_morphism_file):
        code, rep = run_cli(
            [
                "monotonicity",
                "--kind",
                "gns",
                "--morphism",
                transpose_morphism_file,
                "--assume-verified",
                "--samples",
                "50",
            ],
            tmp_path,
        )
        assert code == 1
        assert rep["pass"] is False
        assert abs(rep["exact_max_eig"] - 3.0) < 1e-9  # (3/4)/(1/4)
        # the class of e_01, coordinate (row 0, eigenvalue 1/4), goes to that of e_10
        vec = np.array([[z["re"], z["im"]] for z in rep["witness"]["vector"]])
        assert np.allclose(vec, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], rtol=0.0, atol=1e-12)
        assert abs(rep["witness"]["ratio"] - 3.0) < 1e-9

    def test_carrier_off_the_states_names_the_leaking_null_element(self, tmp_path):
        # the identity carrier with rho = diag(0.6, 0.4) and sigma = diag(1, 0)
        # is unital and CP but does not preserve the states: sigma's null
        # element e_01 (row 0 of sigma's dropped eigenvector e_1) has norm
        # sqrt(0.4) under rho
        shape = mk_shape([2])
        payload = {
            "source": state_to_json(mk_state(shape, [np.diag([0.6, 0.4])])),
            "target": state_to_json(mk_state(shape, [np.diag([1.0, 0.0])])),
            "cpu": cpumap_to_json(identity_map(shape)),
        }
        path = write_json(tmp_path, "m.json", payload)
        code, rep = run_cli(["monotonicity", "--kind", "gns", "--morphism", path, "--assume-verified"], tmp_path)
        assert code == 2
        assert rep["error"] == (
            "the sigma-null element of block 0, row 0, dropped eigenvector 1 (eigenvalue 0.000e+00) "
            "maps outside the rho-null space with norm 6.325e-01 > 1e-08; a carrier that preserves "
            "the states cannot do this, so check rho o phi = sigma"
        )

    @pytest.mark.parametrize("tail", [0.0, 1e-18])
    def test_sub_tolerance_tail_mismatch_is_input_error(self, tmp_path, tail):
        # rho = (1 - 1e-12, 1e-12) and sigma = (1 - tail, tail) on two bins
        # differ by 1e-12, far below the tolerance in absolute terms, but
        # the second bin of sigma is empty or 1e6 times smaller: the support
        # rule keeps every nonzero bin, so the GNS verdict would rest on the
        # mismatch (a quotient leak of 1e-6, or a norm of 1e6)
        shape = mk_shape([1, 1])
        payload = {
            "source": state_to_json(mk_state(shape, [np.array([[1.0 - 1e-12]]), np.array([[1e-12]])])),
            "target": state_to_json(mk_state(shape, [np.array([[1.0 - tail]]), np.array([[tail]])])),
            "cpu": cpumap_to_json(identity_map(shape)),
        }
        path = write_json(tmp_path, "m.json", payload)
        code, rep = run_cli(["monotonicity", "--kind", "gns", "--morphism", path], tmp_path)
        assert code == 2
        assert rep["error"] == (
            "state preservation fails in block 1: max |rho(phi(b)) - sigma(b)| = 1.000e-12 "
            f"> 1.0e-09 times sigma's largest eigenvalue there, {tail:.3e}"
        )

    def test_unverified_morphism_is_input_error(self, tmp_path, transpose_morphism_file):
        code, rep = run_cli(
            ["monotonicity", "--kind", "gns", "--morphism", transpose_morphism_file],
            tmp_path,
        )
        assert code == 2
        assert "completely positive" in rep["error"]


class TestPullback:
    def test_simplex_oracle_deviation(self, tmp_path):
        code, rep = run_cli(
            [
                "pullback",
                "--model",
                "simplex:2",
                "--theta",
                "0.5,0.3333333333",
                "--kind",
                "gns",
            ],
            tmp_path,
        )
        assert code == 0
        assert rep["oracle_deviation"] < 1e-9

    @pytest.mark.parametrize(
        "model, theta",
        [("qubit-pure", "0,0.4"), ("qubit-pure", f"{np.pi},0.4"), ("simplex:2", "0.000001,0.5")],
    )
    def test_fd_at_chart_edge_matches_analytic(self, tmp_path, model, theta):
        # theta - FD_STEP (or theta + FD_STEP) leaves the chart: one-sided stencil
        args = ["pullback", "--model", model, "--theta", theta]
        code_an, analytic = run_cli(args, tmp_path, "analytic.json")
        code_fd, fd = run_cli([*args, "--fd"], tmp_path, "fd.json")
        assert code_an == code_fd == 0
        assert np.max(np.abs(np.subtract(fd["metric"], analytic["metric"]))) < 1e-6

    def test_out_of_domain_is_input_error(self, tmp_path):
        code, rep = run_cli(
            ["pullback", "--model", "simplex:2", "--theta", "0.9,0.3"], tmp_path
        )
        assert code == 2
        assert "error" in rep

    def test_unknown_model_is_input_error(self, tmp_path):
        code, rep = run_cli(
            ["pullback", "--model", "nonsense", "--theta", "0.1"], tmp_path
        )
        assert code == 2


class TestGaussianDemo:
    def test_small_demo(self, tmp_path):
        code, rep = run_cli(
            ["gaussian-demo", "--bins", "512", "--mu", "0", "--sigma", "2"], tmp_path
        )
        assert code == 0
        assert rep["relative_error"] < 0.01
        assert rep["oracle"] == [[0.25, 0.0], [0.0, 0.5]]

    @pytest.mark.parametrize(
        "args", [["--sigma", "-1"], ["--sigma", "nan"], ["--mu", "inf"], ["--bins", "1"]]
    )
    def test_bad_arguments_are_input_errors(self, tmp_path, args):
        code, rep = run_cli(["gaussian-demo", *args], tmp_path)
        assert code == 2
        assert "error" in rep


class TestExtremeParametersAreInputErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["pullback", "--model", "simplex:2", "--theta", "1e-320,0.5"],
            ["pullback", "--model", "qubit-faithful", "--theta", "0.9999999999999999,1,1"],
            ["pullback", "--model", "gaussian:4:-1e-300:1e-300", "--theta", "0,1e-301"],
            ["gaussian-demo", "--bins", "4", "--sigma", "1e-160"],
            ["gaussian-demo", "--bins", "4", "--sigma", "1e300"],
        ],
    )
    def test_is_input_error(self, tmp_path, capsys, args):
        # RuntimeWarnings are errors under pytest, so a warning would exit 3
        code, rep = run_cli(args, tmp_path)
        assert code == 2
        assert rep["error"] and "internal_error" not in rep
        assert capsys.readouterr().err == ""


class TestUnusableArgumentsAreInputErrors:
    @pytest.mark.parametrize(
        "args, says",
        [
            (["pullback", "--model", "simplex:2", "--theta", "0.2,0.3", "--kind", "foo"], "unknown covariance kind 'foo'"),
            (["monotonicity", "--morphism", "MORPHISM", "--kind", "foo"], "unknown covariance kind 'foo'"),
            (["pullback", "--model", "simplex:2", "--theta", "0.2;0.3"], "bad --theta '0.2;0.3'"),
            (["pullback", "--model", "gaussian:16", "--theta", "0,-1"], "sigma must be positive, got -1.0"),
            (["pullback", "--model", "gaussian:16", "--theta", "0,0"], "sigma must be positive, got 0.0"),
            (["congruence-invariance", "--model", "qubit-faithful"], "applies to abelian models only"),
        ],
    )
    def test_names_the_fault(self, tmp_path, capsys, args, says):
        obj = (mk_shape([2]), mk_state(mk_shape([2]), [np.diag([0.75, 0.25])]))
        morphism = write_json(tmp_path, "m.json", morphism_to_json(identity_morphism(obj)))
        code, rep = run_cli([morphism if a == "MORPHISM" else a for a in args], tmp_path)
        assert code == 2
        assert says in rep["error"] and "internal_error" not in rep
        assert capsys.readouterr().err == ""


class TestOversizedModelsAreInputErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["gaussian-demo", "--bins", "1000000000000"],
            ["pullback", "--model", "gaussian:1000000000000", "--theta", "0,1"],
            ["pullback", "--model", "simplex:1000000000000", "--theta", "0.1,0.2"],
        ],
    )
    def test_refused_before_allocating(self, tmp_path, args):
        tracemalloc.start()
        try:
            code, rep = run_cli(args, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"above the limit of {models.MAX_OUTCOMES}" in rep["error"]
        assert peak < 2**20


class TestInputErrorRoot:
    def test_every_library_error_derives_from_the_root(self):
        defined = [
            value
            for mod in (algebra, states, channels, gns, covariance, models, serialize, cli)
            for value in vars(mod).values()
            if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == mod.__name__
        ]
        names = {cls.__name__ for cls in defined}
        assert {"ShapeError", "GnsQuotientError", "ScoreNotRepresentableError", "SerializationError"} <= names
        assert [cls.__name__ for cls in defined if not issubclass(cls, ncplab.InputError)] == []

    def test_cli_maps_only_the_root_and_os_errors_to_exit_2(self):
        assert cli.INPUT_ERRORS == (ncplab.InputError, OSError)


def _tol_callers() -> dict:
    """One call per public callable with a ``tol`` parameter, valid in every
    argument but ``tol``."""
    shape = mk_shape([2])
    rho = random_state(shape, faithful=True, seed=0)
    obj = (shape, rho)
    emb = channels.congruent_embedding([0, 1, 2], [1.0, 1.0, 1.0])
    return {
        "channels.is_cp": lambda tol: channels.is_cp(identity_map(shape), tol=tol),
        "channels.is_unital": lambda tol: channels.is_unital(identity_map(shape), tol=tol),
        "channels.mk_morphism": lambda tol: mk_morphism(obj, obj, identity_map(shape), tol=tol),
        "covariance.monotonicity_check": lambda tol: covariance.monotonicity_check(
            covariance.ONE, identity_morphism(obj), n_samples=0, tol=tol
        ),
        "covariance.tracial_collapse_check": lambda tol: covariance.tracial_collapse_check(
            [shape], n_states=2, tol=tol
        ),
        "gns.GnsSpace": lambda tol: gns.GnsSpace(shape, rho, tol=tol),
        "gns.build_gns": lambda tol: gns.build_gns(shape, rho, tol=tol),
        "gns.check_functor_laws": lambda tol: gns.check_functor_laws([[identity_morphism(obj)]], tol=tol),
        "models.congruence_invariance_check": lambda tol: models.congruence_invariance_check(
            models.simplex_model(2), emb, [np.array([0.3, 0.4])], tol=tol
        ),
        # unverified, so that mk_morphism's own check cannot stand in for it
        "serialize.morphism_from_json": lambda tol: serialize.morphism_from_json(
            morphism_to_json(identity_morphism(obj)), tol=tol, verify=False
        ),
    }


def _public_callables_with(param: str) -> set:
    """Every public function, class and public method of a class defined in
    the package that takes a parameter named ``param``."""
    import inspect

    found = set()
    for mod in (algebra, states, channels, gns, covariance, models, serialize, cli):
        for name, value in vars(mod).items():
            if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            members = [(name, value)]
            if inspect.isclass(value):
                members += [(f"{name}.{k}", v) for k, v in vars(value).items() if not k.startswith("_")]
            for label, member in members:
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                if param in params:
                    found.add(f"{mod.__name__.split('.')[-1]}.{label}")
    return found


class TestTolContract:
    """Every public callable with a ``tol`` refuses one that is infinite
    (it would pass every verdict), NaN (it would fail every one), negative,
    or not a real number (a string, None or a boolean) with an InputError,
    so a new one cannot drift out of the contract unnoticed."""

    def test_every_callable_with_a_tol_is_listed(self):
        assert _public_callables_with("tol") == set(_tol_callers())

    @pytest.mark.parametrize("name", sorted(_tol_callers()))
    @pytest.mark.parametrize(
        "tol",
        [float("inf"), float("nan"), -1.0, "x", None, True],
        ids=["inf", "nan", "negative", "str", "none", "bool"],
    )
    def test_refused(self, name, tol):
        call = _tol_callers()[name]
        call(1e-9)  # the other arguments are valid
        with pytest.raises(ncplab.InputError):
            call(tol)


def _seed_callers() -> dict:
    """One call per public callable with a ``seed`` parameter, valid in
    every argument but ``seed``."""
    shape = mk_shape([2])
    obj = (shape, random_state(shape, faithful=True, seed=0))
    return {
        "channels.random_cpu_map": lambda seed: channels.random_cpu_map(shape, shape, seed=seed),
        "covariance.monotonicity_check": lambda seed: covariance.monotonicity_check(
            covariance.ONE, identity_morphism(obj), n_samples=1, seed=seed
        ),
        "covariance.tracial_collapse_check": lambda seed: covariance.tracial_collapse_check(
            [shape], n_states=1, seed=seed
        ),
        "states.random_state": lambda seed: states.random_state(shape, seed=seed),
        "states.random_tracial_state": lambda seed: states.random_tracial_state(shape, seed=seed),
    }


class TestSeedContract:
    """Every public callable with a ``seed`` refuses one that is negative,
    not an integer, or a boolean with an InputError, as ``n_samples`` and
    the other counts are refused."""

    def test_every_callable_with_a_seed_is_listed(self):
        assert _public_callables_with("seed") == set(_seed_callers())

    @pytest.mark.parametrize("name", sorted(_seed_callers()))
    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_refused(self, name, seed):
        call = _seed_callers()[name]
        call(3)  # the other arguments are valid
        with pytest.raises(ncplab.InputError):
            call(seed)


def _public_calls_with_bad_arguments() -> dict:
    """Public calls given an argument of the wrong kind, each of which once
    raised an error that is not an InputError."""
    shape = mk_shape([2])
    m = identity_morphism((shape, random_state(shape, faithful=True, seed=0)))
    return {
        "check_functor_laws-empty-chain": lambda: gns.check_functor_laws([[]]),
        "check_functor_laws-bare-morphism": lambda: gns.check_functor_laws([m]),
        "tracial_collapse_check-no-shapes": lambda: covariance.tracial_collapse_check([]),
        "kind_from_name-number": lambda: covariance.kind_from_name(3),
        "left_inverse-not-an-embedding": lambda: channels.left_inverse(identity_map(shape)),
        "simplex_model-float": lambda: models.simplex_model(1.5),
        "simplex_model-bool": lambda: models.simplex_model(True),
        "gaussian_model-float-bins": lambda: models.gaussian_model(2.5, -1, 1),
        "from_kraus-strings": lambda: from_kraus(shape, shape, [[["a", "b"], ["c", "d"]]]),
    }


@pytest.mark.parametrize("name", sorted(_public_calls_with_bad_arguments()))
def test_a_bad_argument_is_an_input_error(name):
    with pytest.raises(ncplab.InputError):
        _public_calls_with_bad_arguments()[name]()


class TestTracialUniqueness:
    def test_runs_clean(self, tmp_path):
        code, rep = run_cli(
            ["tracial-uniqueness", "--samples", "12", "--seed", "5"], tmp_path
        )
        assert code == 0
        assert rep["max_deviation"] < 1e-9
        assert rep["pass"] is True


class TestCongruenceInvariance:
    def test_simplex(self, tmp_path):
        code, rep = run_cli(
            ["congruence-invariance", "--model", "simplex:2", "--samples", "4", "--seed", "1"],
            tmp_path,
        )
        assert code == 0
        assert rep["max_metric_deviation"] < 1e-9

    def test_gaussian_off_centre_range(self, tmp_path):
        code, rep = run_cli(
            ["congruence-invariance", "--model", "gaussian:64:40:60", "--samples", "2"], tmp_path
        )
        assert code == 0
        assert rep["max_metric_deviation"] < 1e-9


class TestOmfCatalog:
    def test_catalog(self, tmp_path):
        code, rep = run_cli(["omf-catalog"], tmp_path)
        assert code == 0
        names = [e["name"] for e in rep["catalog"]]
        assert names == ["sld", "kmb", "wy", "rld"]
        assert all(e["monotone_on_grid"] for e in rep["catalog"])
        assert all(e["symmetric"] for e in rep["catalog"])

    def test_symmetric_is_computed(self, tmp_path, monkeypatch):
        # t^0.3 is normalized and operator monotone, but t * (1/t)^0.3 = t^0.7
        power = covariance.OperatorMonotoneFunction("pow0.3", lambda t: t**0.3)
        monkeypatch.setattr(cli, "omf_catalog", lambda: [covariance.SLD, power])
        code, rep = run_cli(["omf-catalog"], tmp_path)
        assert code == 0
        assert [e["symmetric"] for e in rep["catalog"]] == [True, False]


class TestContract:
    def test_malformed_json_positions(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"prob": [0.5,')
        code, rep = run_cli(["gns", "--state", str(bad)], tmp_path)
        assert code == 2
        assert "line" in rep["error"] and "column" in rep["error"]

    def test_unwritable_out_reports_on_stdout(self, tmp_path, capsys):
        code = main(["omf-catalog", "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert "No such file" in _strict_json(capsys.readouterr().out)["error"]

    def test_missing_file(self, tmp_path):
        code, rep = run_cli(["gns", "--state", str(tmp_path / "nope.json")], tmp_path)
        assert code == 2

    @pytest.mark.parametrize(
        "name, content, says",
        [
            ("utf16.json", b"\xff\xfe{}", "is not UTF-8 text"),
            ("deep.json", b"[" * 100_000, "nested too deeply"),
        ],
        ids=["utf16", "deep"],
    )
    def test_undecodable_file_is_input_error(self, tmp_path, capsys, name, content, says):
        path = tmp_path / name
        path.write_bytes(content)
        code = main(["gns", "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        error = _strict_json(captured.out)["error"]
        assert says in error and str(path) in error
        assert captured.err == ""

    def test_parser_built_once(self, tmp_path, monkeypatch):
        run_cli(["omf-catalog"], tmp_path)
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
        )
        code, _ = run_cli(["omf-catalog"], tmp_path)
        assert code == 0 and not built

    def test_determinism_modulo_timestamp(self, tmp_path, qubit_state_file):
        _, rep1 = run_cli(["gns", "--state", qubit_state_file], tmp_path, "a.json")
        _, rep2 = run_cli(["gns", "--state", qubit_state_file], tmp_path, "b.json")
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert rep1 == rep2


QUBIT_STATE = {"shape": {"blocks": [2]}, "densities": [[[0.75, 0.0], [0.0, 0.25]]]}
QUBIT_IDENTITY = {"source": {"blocks": [2]}, "target": {"blocks": [2]}, "kraus": [[[1, 0], [0, 1]]]}


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("gns", {"shape": {"blocks": [2]}, "densities": [np.eye(3).tolist()]}),
            ("gns", {"prob": "ab"}),
            ("gns", 5),
            ("check-channel", {"stochastic": [1, 2]}),
            ("check-channel", {**QUBIT_IDENTITY, "kraus": [[[1, 0, 0], [0, 1, 0]]]}),
            ("check-channel", {"stochastic": [[]]}),
            ("gns", {"shape": {"blocks": [1.9]}, "densities": [[[1.0]]]}),
            ("gns", {"shape": {"blocks": [True]}, "densities": [[[1.0]]]}),
            ("gns", {"shape": {"blocks": ["1"]}, "densities": [[[1.0]]]}),
            ("check-channel", {"source": {"blocks": [1.5]}, "target": {"blocks": [1]}, "kraus": [[[1]]]}),
        ],
    )
    def test_is_input_error(self, tmp_path, command, payload):
        flag = "--state" if command == "gns" else "--channel"
        code, rep = run_cli([command, flag, write_json(tmp_path, "p.json", payload)], tmp_path)
        assert code == 2
        assert rep["error"] and "internal_error" not in rep

    @pytest.mark.parametrize(
        "command, payload, says",
        [
            ("gns", {"prob": [{"re": 0.5, "im": 0.1}, 0.5]}, "entries must be real numbers"),
            ("check-channel", {"stochastic": [[{"re": 1.0, "im": -0.5}]]}, "entries must be real numbers"),
            ("check-channel", {"source": {"blocks": [2]}, "kraus": [[[1, 0], [0, 1]]]}, "needs 'source' and 'target'"),
            ("check-channel", {"source": {"blocks": [2]}, "target": {"blocks": [2]}, "kraus": []}, "empty Kraus list"),
            ("monotonicity", {"source": QUBIT_STATE, "target": QUBIT_STATE}, "needs 'source', 'target', 'cpu'"),
            (
                "monotonicity",
                {
                    "source": QUBIT_STATE,
                    "target": QUBIT_STATE,
                    "cpu": {"source": {"blocks": [2]}, "target": {"blocks": [2]}, "linear": (0.5 * np.eye(4)).tolist()},
                },
                "carrier map is not unital",
            ),
            (
                "monotonicity --kind gns --assume-verified",
                {"source": {"prob": [0.5, 0.5]}, "target": {"prob": [1.0]}, "cpu": {"stochastic": [[1]]}},
                "carrier must map",
            ),
            ("check-channel", {"source": {"blocks": [2]}, "target": {"blocks": [2]}, "kraus": None}, "'kraus' must be a list"),
            ("check-channel", {"source": {"blocks": [2]}, "target": {"blocks": [2]}, "kraus": 5}, "'kraus' must be a list"),
        ],
    )
    def test_names_the_fault(self, tmp_path, capsys, command, payload, says):
        command, *flags = command.split()
        flag = {"gns": "--state", "check-channel": "--channel", "monotonicity": "--morphism"}[command]
        code, rep = run_cli([command, *flags, flag, write_json(tmp_path, "p.json", payload)], tmp_path)
        assert code == 2
        assert says in rep["error"] and "internal_error" not in rep
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("gns", {"prob": [{"re": 0.25, "im": 0}, {"re": 0.75, "im": -0.0}]}),
            ("check-channel", {"stochastic": [[{"re": 0.5, "im": 0.0}, 1], [{"re": 0.5}, 0]]}),
        ],
    )
    def test_real_entries_given_as_pairs_are_accepted(self, tmp_path, command, payload):
        flag = "--state" if command == "gns" else "--channel"
        code, rep = run_cli([command, flag, write_json(tmp_path, "p.json", payload)], tmp_path)
        assert code == 0 and "error" not in rep


class TestBadFlagValues:
    @pytest.mark.parametrize(
        "args",
        [
            ["gns", "--state", "STATE", "--tol", "nan"],
            ["gns", "--state", "STATE", "--tol=-1e-9"],
            ["check-channel", "--channel", "CHANNEL", "--tol", "nan"],
            ["check-channel", "--channel", "CHANNEL", "--tol", "inf"],
            ["congruence-invariance", "--samples", "-2"],
            ["tracial-uniqueness", "--samples", "-1"],
            ["tracial-uniqueness", "--samples", "0"],
            ["monotonicity", "--morphism", "CHANNEL", "--samples", "-1"],
            ["tracial-uniqueness", "--seed", "-3"],
            ["gns", "--state", "PROB", "--tol", "1"],
            ["gns", "--state", "STATE", "--tol", "2.5"],
        ],
    )
    def test_is_input_error(self, tmp_path, args):
        files = {
            "STATE": write_json(tmp_path, "s.json", QUBIT_STATE),
            "PROB": write_json(tmp_path, "p.json", {"prob": [0.25, 0.75]}),
            "CHANNEL": write_json(tmp_path, "c.json", QUBIT_IDENTITY),
        }
        code, rep = run_cli([files.get(a, a) for a in args], tmp_path)
        assert code == 2
        assert rep["error"].startswith(("--tol", "--samples", "--seed"))

    def test_zero_samples_allowed_for_monotonicity(self, tmp_path):
        shape = mk_shape([2])
        rho = mk_state(shape, [np.diag([0.75, 0.25])])
        m = mk_morphism((shape, rho), (shape, rho), identity_map(shape))
        path = write_json(tmp_path, "m.json", morphism_to_json(m))
        code, rep = run_cli(["monotonicity", "--morphism", path, "--samples", "0"], tmp_path)
        assert code == 0
        assert rep["n_samples"] == 0 and rep["pass"] is True

    @pytest.mark.parametrize("command", ["monotonicity", "tracial-uniqueness", "congruence-invariance"])
    def test_samples_above_the_limit_refused_before_drawing(self, tmp_path, command):
        # 10^12 samples would ask for terabytes; refused, not a failed allocation
        args = [command, "--samples", "1000000000000"]
        if command == "monotonicity":
            shape = mk_shape([2])
            rho = mk_state(shape, [np.diag([0.75, 0.25])])
            m = mk_morphism((shape, rho), (shape, rho), identity_map(shape))
            args += ["--morphism", write_json(tmp_path, "m.json", morphism_to_json(m))]
        code, rep = run_cli(args, tmp_path)
        assert code == 2
        assert rep["error"].startswith("--samples") and str(cli.MAX_SAMPLES) in rep["error"]


class TestInternalError:
    def test_unexpected_exception_is_reported(self, tmp_path, monkeypatch, capsys):
        def broken(_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_omf_catalog", broken)
        code, rep = run_cli(["omf-catalog"], tmp_path)
        assert code == 3
        assert rep["internal_error"] is True
        assert rep["error"] == "RuntimeError: boom"
        assert set(rep) == {"schema", "command", "error", "internal_error", "provenance", "timestamp"}
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_unexpected_exception_with_unwritable_out(self, tmp_path, monkeypatch, capsys):
        def broken(_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_omf_catalog", broken)
        code = main(["omf-catalog", "--out", str(tmp_path / "missing" / "r.json")])
        assert code == 3
        rep = _strict_json(capsys.readouterr().out)
        assert rep["internal_error"] is True
        assert rep["error"].startswith("RuntimeError: boom; ") and "No such file" in rep["error"]


class TestUnwritableStdout:
    class Closed:
        def write(self, _text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    @pytest.mark.parametrize("crash", [False, True])
    def test_reported_on_stderr(self, monkeypatch, capsys, crash):
        if crash:
            monkeypatch.setattr(cli, "_cmd_omf_catalog", lambda _args: 1 / 0)
        monkeypatch.setattr(sys, "stdout", self.Closed())
        code = main(["omf-catalog"])
        assert code == (3 if crash else 2)
        assert "cannot write the report to standard output: [Errno 32] Broken pipe" in capsys.readouterr().err


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def payload_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("payloads")
    return {
        "gns": ["--state", write_json(root, "s.json", QUBIT_STATE)],
        "check-channel": ["--channel", write_json(root, "c.json", QUBIT_IDENTITY)],
    }


PROVENANCE = {"ncplab": ncplab.__version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _contract_holds(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    rep = _strict_json(out.getvalue())
    assert rep["command"] == argv[0]
    assert rep["provenance"] == PROVENANCE


EXTREMES = [0.0, 5e-324, 1e-320, 1.0 - 2.0**-53, 1e300, float("nan"), float("inf"), -float("inf")]
extreme_floats = st.one_of(st.floats(), st.floats(0.0, 4.0), st.sampled_from(EXTREMES))


class TestExitCodeContract:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["gns", "check-channel", "tracial-uniqueness", "omf-catalog"]),
        st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0])),
        st.integers(-5, 3),
    )
    def test_codes_and_strict_json(self, payload_files, command, tol, samples):
        argv = [command, *payload_files.get(command, [])]
        if command != "omf-catalog":
            argv.append(f"--tol={tol!r}")
        if command == "tracial-uniqueness":
            argv.append(f"--samples={samples}")
        _contract_holds(argv)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.sampled_from([("simplex:2", 2), ("qubit-faithful", 3), ("qubit-pure", 2)]),
        st.lists(extreme_floats, min_size=3, max_size=3),
    )
    def test_pullback(self, model, theta):
        name, dim = model
        _contract_holds(["pullback", "--model", name, "--theta=" + ",".join(map(repr, theta[:dim]))])

    # at most 64 bins: the bin count sizes every array the command allocates
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(-2, 64), extreme_floats, extreme_floats)
    def test_gaussian_demo(self, bins, mu, sigma):
        _contract_holds(["gaussian-demo", f"--bins={bins}", f"--mu={mu!r}", f"--sigma={sigma!r}"])
