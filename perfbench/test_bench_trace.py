"""Tests of the benchmark's span recorder.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ncplab  # noqa: E402
from ncplab import channels, covariance, models, states  # noqa: E402

from bench_trace import LAYERS, BindingError, Recorder  # noqa: E402


@pytest.fixture
def recorder():
    rec = Recorder()
    rec.install()
    try:
        yield rec
    finally:
        rec.uninstall()


def test_every_binding_is_wrapped_and_restored():
    originals = {
        "models.block_form": models.block_form,
        "covariance.is_faithful": covariance.is_faithful,
        "gns.apply": sys.modules["ncplab.gns"].apply,
        "package.metric_pullback": ncplab.metric_pullback,
        "StatModel.state_at": models.StatModel.state_at,
    }
    rec = Recorder()
    rec.install()
    try:
        assert rec.unwrapped_bindings() == []
        # By-name imports in other modules are wrapped too.
        assert models.block_form is covariance.block_form
        assert covariance.is_faithful is states.is_faithful
        assert sys.modules["ncplab.gns"].apply is channels.apply
        assert models.block_form is not originals["models.block_form"]
        assert models.StatModel.state_at is not originals["StatModel.state_at"]
    finally:
        rec.uninstall()
    assert models.block_form is originals["models.block_form"]
    assert covariance.is_faithful is originals["covariance.is_faithful"]
    assert sys.modules["ncplab.gns"].apply is originals["gns.apply"]
    assert ncplab.metric_pullback is originals["package.metric_pullback"]
    assert models.StatModel.state_at is originals["StatModel.state_at"]


def test_a_missed_binding_fails_install(monkeypatch):
    # Class attributes are not rebound by the module scan, so an alias held
    # there stays unwrapped and install must refuse to run.
    original = states.is_faithful
    monkeypatch.setattr(models.StatModel, "stray", original, raising=False)
    rec = Recorder()
    with pytest.raises(BindingError, match="ncplab.models.StatModel.stray"):
        rec.install()
    assert rec._patched == []
    assert states.is_faithful is original


def test_petz_pullback_calls_scale_with_bins(recorder):
    model = ncplab.gaussian_model(64, -5.5, 5.5)
    ncplab.metric_pullback(model, [0.0, 1.0], ncplab.petz_kind(ncplab.SLD))
    assert recorder.calls["covariance.block_form"] == 64
    assert recorder.calls["states.is_faithful"] == 64
    assert recorder.calls["models.metric_pullback"] == 1
    assert recorder.bytes_max["covariance.block_form"] == 16


def test_mk_morphism_apply_calls(recorder):
    shape = ncplab.mk_shape([4])
    rng = np.random.default_rng(0)
    raw = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in raw))
    kraus = [k @ (v / np.sqrt(w)) @ v.conj().T for k in raw]
    phi = ncplab.from_kraus(shape, shape, kraus)
    rho = ncplab.random_state(shape, faithful=True, seed=1)
    sigma = ncplab.predual(phi, rho)
    before = recorder.calls["channels.apply"]
    ncplab.mk_morphism((shape, rho), (shape, sigma), phi)
    assert recorder.calls["channels.apply"] - before == 33
    assert recorder.bytes_max["channels.choi"] == (4 * 4) ** 2 * 16
    assert recorder.bytes_max["channels.from_kraus"] == 16 * 16 * 16


def test_self_time_excludes_children(recorder):
    recorder.job = 7
    model = ncplab.gaussian_model(32, -5.5, 5.5)
    ncplab.metric_pullback(model, [0.0, 1.0], ncplab.petz_kind(ncplab.KMB))
    spans = {s[0]: s for s in recorder.spans}
    roots = [s for s in spans.values() if s[4] == -1]
    assert [s[1] for s in roots] == ["models.metric_pullback"]
    root = roots[0]
    assert root[6:] == (32, 1, 32, 32)  # K, n, bins, dims
    assert all(s[5] == 7 for s in spans.values())
    for s in spans.values():
        if s[4] != -1:
            parent = spans[s[4]]
            assert parent[2] <= s[2] <= s[3] <= parent[3]
    total_self = sum(recorder.self_s.values())
    assert total_self == pytest.approx(root[3] - root[2], rel=1e-9, abs=1e-12)


def test_errors_counted_once_per_module(recorder):
    shape = ncplab.mk_shape([2])
    pure = ncplab.mk_state(shape, [np.diag([1.0, 0.0])])
    m = ncplab.identity_morphism((shape, pure))
    with pytest.raises(ncplab.UnsupportedKindError):
        ncplab.monotonicity_check(ncplab.petz_kind(ncplab.SLD), m)
    assert recorder.errors["covariance"] == 1
    assert sum(recorder.errors.values()) == 1
    assert set(recorder.errors) == set(LAYERS)
