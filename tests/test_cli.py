import argparse
import contextlib
import io
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depolarizing_kraus
from ncplab.algebra import mk_shape
from ncplab.channels import from_kraus, identity_map, mk_morphism, predual, transpose_map
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
        assert rep["witness"] == {"source_block": 0, "target_block": 0}

    def test_transpose_witness_names_the_matrix_block(self, tmp_path):
        path = write_json(
            tmp_path, "chan.json", cpumap_to_json(transpose_map(mk_shape([1, 2])))
        )
        code, rep = run_cli(["check-channel", "--channel", path], tmp_path)
        assert code == 1
        assert rep["witness"] == {"source_block": 1, "target_block": 1}

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
        fields = {"schema", "command", "timestamp", "cp", "unital", "min_choi_eig", "tol"}
        assert set(rep) == fields

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


class TestInternalError:
    def test_unexpected_exception_is_reported(self, tmp_path, monkeypatch, capsys):
        def broken(_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_omf_catalog", broken)
        code, rep = run_cli(["omf-catalog"], tmp_path)
        assert code == 3
        assert rep["internal_error"] is True
        assert rep["error"] == "RuntimeError: boom"
        assert set(rep) == {"schema", "command", "error", "internal_error", "timestamp"}
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


def _contract_holds(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    assert _strict_json(out.getvalue())["command"] == argv[0]


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
