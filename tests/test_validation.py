import numpy as np
import pytest

from cohkit import measures, validation
from cohkit.measures import MeasureValue, Method


def run_row(monkeypatch, name: str) -> validation.PropertyResult:
    """The row of the table called ``name``, run alone (so from stream 1) on 10 instances."""
    [check] = [c for c in validation.CHECKS if c.name == name]
    monkeypatch.setattr(validation, "CHECKS", (check,))
    [result] = validation.run_all(samples=10, seed=0)
    return result


def test_run_all_passes_every_check():
    results = validation.run_all(samples=10, seed=0)
    assert len(results) == 8
    assert len({r.name for r in results}) == 8
    for r in results:
        assert r.checked == (1000 if r.name == "pure_state_superadditivity" else 10)
        assert r.passed, (r.name, r.worst, r.tol)


def test_offset_roc_fails_vanishing_check(monkeypatch):
    honest = measures.roc

    def offset_roc(rho, tol=1e-8):
        value = honest(rho, tol=tol)
        return measures.MeasureValue(value.value + 1e-3, value.method, value.certificate_gap)

    monkeypatch.setattr(measures, "roc", offset_roc)
    result = run_row(monkeypatch, "vanishes_on_incoherent")
    assert not result.passed
    assert result.worst == pytest.approx(1e-3, abs=1e-6)


def test_property_result_passes_at_tolerance():
    assert validation.PropertyResult("x", 1, worst=1e-9, tol=1e-9).passed
    assert not validation.PropertyResult("x", 1, worst=2e-9, tol=1e-9).passed


def _direct(value: float) -> MeasureValue:
    return MeasureValue(float(value), Method.DIRECT)


def _patch_roc(monkeypatch, faulty):
    """Replace ``measures.roc`` by ``faulty(rho, honest value)``."""
    honest = measures.roc
    monkeypatch.setattr(measures, "roc", lambda rho, tol=1e-8: faulty(rho, honest(rho, tol=tol)))


def _patch_l1(monkeypatch, faulty):
    """Replace ``measures.l1_coherence`` by ``faulty(rho, honest l1 value)``."""
    honest = measures.l1_coherence
    monkeypatch.setattr(
        measures, "l1_coherence", lambda rho: _direct(faulty(rho, honest(rho).value))
    )


def offset_roc(monkeypatch):
    _patch_roc(monkeypatch, lambda rho, mv: _direct(mv.value + 1e-3))


def basis_dependent_l1(monkeypatch):
    # only the (0, 1) entry counts, so permuting the basis changes the value
    _patch_l1(monkeypatch, lambda rho, l1: 2 * abs(rho.mat[0, 1]))


def concave_measure(monkeypatch):
    # the von Neumann entropy in place of the relative entropy of coherence
    monkeypatch.setattr(
        measures,
        "rel_entropy_coherence",
        lambda rho: _direct(rho.entropy_bits),
    )


def squared_l1(monkeypatch):
    _patch_l1(monkeypatch, lambda rho, l1: l1**2)


def joint_roc_deflated(monkeypatch):
    # the qubit marginals keep their value; the joint state drops to zero
    _patch_roc(monkeypatch, lambda rho, mv: mv if rho.dim == 2 else _direct(0.0))


def dimension_normalised_l1(monkeypatch):
    _patch_l1(monkeypatch, lambda rho, l1: l1 / (rho.dim - 1))


def roc_above_l1(monkeypatch):
    _patch_roc(monkeypatch, lambda rho, mv: _direct(measures.l1_coherence(rho).value + 1e-3))


def joint_roc_inflated(monkeypatch):
    _patch_roc(monkeypatch, lambda rho, mv: mv if rho.dim == 2 else _direct(mv.value + 1.0))


FAULTS = {
    "vanishes_on_incoherent": offset_roc,
    "incoherent_unitary_invariance": basis_dependent_l1,
    "convexity": concave_measure,
    "block_additivity": squared_l1,
    "pure_state_superadditivity": joint_roc_deflated,
    "incoherent_ancilla_invariance": dimension_normalised_l1,
    "roc_within_l1": roc_above_l1,
    "sigma_family_subadditivity": joint_roc_inflated,
}


def test_every_row_has_a_planted_fault():
    assert set(FAULTS) == {c.name for c in validation.CHECKS}


@pytest.mark.parametrize("name", list(FAULTS))
def test_each_row_catches_its_planted_fault(monkeypatch, name):
    FAULTS[name](monkeypatch)
    result = run_row(monkeypatch, name)
    assert result.passed is False, (result.worst, result.tol)
    assert np.isfinite(result.worst)



@pytest.mark.parametrize("name", [c.name for c in validation.CHECKS])
def test_each_row_fails_on_a_nan_valued_robustness(monkeypatch, name):
    # every row reaches the robustness; a NaN must fail it, not slip past max()
    _patch_roc(monkeypatch, lambda rho, mv: _direct(np.nan))
    result = run_row(monkeypatch, name)
    assert result.passed is False
    assert result.worst == np.inf
