"""Tests for the result dataclasses shared by bounds and baselines."""

from __future__ import annotations

import pytest

from repro.core.result import (
    BaselineBoundResult,
    ParallelBoundResult,
    SpectralBoundResult,
    _clamp_nonnegative,
)


def make_spectral(value: float = 5.0, raw: float = 5.0) -> SpectralBoundResult:
    return SpectralBoundResult(
        value=value,
        raw_value=raw,
        best_k=3,
        num_vertices=100,
        memory_size=8,
        normalized=True,
        num_eigenvalues=10,
        elapsed_seconds=0.01,
    )


class TestSpectralBoundResult:
    def test_as_dict_drops_bulky_fields(self):
        # A result carries scalars only: the eigenvalues come from
        # BoundEngine.spectrum and the per-k values from
        # spectral_bound_from_eigenvalues.
        data = make_spectral().as_dict()
        assert data["value"] == 5.0
        assert data["best_k"] == 3
        assert "eigenvalues" not in data
        assert "per_k_values" not in data
        assert all(isinstance(v, (bool, int, float)) for v in data.values())

    def test_is_trivial_flag(self):
        assert not make_spectral(5.0).is_trivial
        assert make_spectral(0.0, raw=-3.0).is_trivial

    def test_frozen(self):
        result = make_spectral()
        with pytest.raises(AttributeError):
            result.value = 7.0  # type: ignore[misc]


class TestParallelBoundResult:
    def test_round_trip(self):
        result = ParallelBoundResult(
            value=2.0,
            raw_value=2.0,
            best_k=2,
            num_vertices=64,
            memory_size=4,
            num_processors=4,
            num_eigenvalues=5,
        )
        data = result.as_dict()
        assert data["num_processors"] == 4
        assert "eigenvalues" not in data and "per_k_values" not in data


class TestBaselineBoundResult:
    def test_defaults_and_dict(self):
        result = BaselineBoundResult(
            value=3.0, method="convex-min-cut", num_vertices=12, memory_size=4
        )
        assert result.witness_vertex is None
        assert result.details == {}
        data = result.as_dict()
        assert data["method"] == "convex-min-cut"
        assert data["elapsed_seconds"] == 0.0


class TestClampHelper:
    def test_clamps_negative(self):
        assert _clamp_nonnegative(-2.5) == 0.0
        assert _clamp_nonnegative(4.0) == 4.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            _clamp_nonnegative(float("inf"))
        with pytest.raises(ValueError):
            _clamp_nonnegative(float("nan"))
