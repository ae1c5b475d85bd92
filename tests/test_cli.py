import json

import numpy as np
import pytest

from conftest import depolarizing_kraus
from ncplab.algebra import mk_shape
from ncplab.channels import from_kraus, identity_map, predual, transpose_map
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


class TestTracialUniqueness:
    def test_runs_clean(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NCP_LAB_THREADS", "2")
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

    def test_missing_file(self, tmp_path):
        code, rep = run_cli(["gns", "--state", str(tmp_path / "nope.json")], tmp_path)
        assert code == 2

    def test_determinism_modulo_timestamp(self, tmp_path, qubit_state_file):
        _, rep1 = run_cli(["gns", "--state", qubit_state_file], tmp_path, "a.json")
        _, rep2 = run_cli(["gns", "--state", qubit_state_file], tmp_path, "b.json")
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert rep1 == rep2
