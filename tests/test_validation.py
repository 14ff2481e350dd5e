import pytest

from cohkit import measures, validation


def test_run_all_passes_every_check():
    results = validation.run_all(samples=10, seed=0)
    assert len(results) == 8
    assert len({r.name for r in results}) == 8
    for r in results:
        assert r.checked >= 10
        assert r.passed, (r.name, r.worst, r.tol)


def test_offset_roc_fails_vanishing_check(monkeypatch):
    honest = measures.roc

    def offset_roc(rho, tol=1e-8):
        value = honest(rho, tol=tol)
        return measures.MeasureValue(value.value + 1e-3, value.method, value.certificate_gap)

    monkeypatch.setattr(measures, "roc", offset_roc)
    result = validation.check_vanishes_on_incoherent(samples=10, seed=0)
    assert not result.passed
    assert result.worst == pytest.approx(1e-3, abs=1e-6)


def test_property_result_passes_at_tolerance():
    assert validation.PropertyResult("x", 1, worst=1e-9, tol=1e-9).passed
    assert not validation.PropertyResult("x", 1, worst=2e-9, tol=1e-9).passed
