"""Unit tests for cross-level fusion strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    FUSION_STRATEGIES,
    ProductionLevel,
    fuse,
    fuse_fisher,
    fuse_max,
    fuse_mean,
    fuse_weighted,
)

L = ProductionLevel


class TestBasics:
    def test_all_strategies_bounded(self):
        scores = {L.PHASE: 0.9, L.JOB: 0.2, L.PRODUCTION: 0.7}
        for name in FUSION_STRATEGIES:
            out = fuse(scores, name)
            assert 0.0 <= out <= 1.0, name

    def test_single_level_passthrough_max_mean(self):
        scores = {L.PHASE: 0.42}
        assert fuse_max(scores) == 0.42
        assert fuse_mean(scores) == 0.42
        assert fuse_weighted(scores) == pytest.approx(0.42)

    def test_max_picks_strongest(self):
        assert fuse_max({L.PHASE: 0.1, L.JOB: 0.8}) == 0.8

    def test_mean_averages(self):
        assert fuse_mean({L.PHASE: 0.2, L.JOB: 0.6}) == pytest.approx(0.4)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            fuse({L.PHASE: 0.5}, "bogus")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_mean({})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fuse_mean({L.PHASE: 1.5})

    def test_non_level_key_rejected(self):
        with pytest.raises(TypeError):
            fuse_mean({"phase": 0.5})


class TestWeighted:
    def test_higher_levels_weigh_more(self):
        # same two scores, swapped between a low and a high level
        low_high = fuse_weighted({L.PHASE: 0.2, L.PRODUCTION: 0.8})
        high_low = fuse_weighted({L.PHASE: 0.8, L.PRODUCTION: 0.2})
        assert low_high > high_low

    def test_custom_weights(self):
        out = fuse_weighted(
            {L.PHASE: 1.0, L.JOB: 0.0},
            weights={L.PHASE: 3.0, L.JOB: 1.0},
        )
        assert out == pytest.approx(0.75)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fuse_weighted({L.PHASE: 0.5}, weights={L.PHASE: -1.0})

    def test_explicit_empty_weights_mean_unweighted(self):
        # regression: `weights or DEFAULT` silently replaced an explicitly
        # passed empty mapping with the level-dependent defaults
        scores = {L.PHASE: 0.2, L.PRODUCTION: 0.8}
        assert fuse_weighted(scores, weights={}) == pytest.approx(0.5)
        assert fuse_weighted(scores, weights={}) != fuse_weighted(scores)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            fuse_weighted(
                {L.PHASE: 0.5, L.JOB: 0.5},
                weights={L.PHASE: 0.0, L.JOB: 0.0},
            )

    def test_partial_zero_weights_still_fuse(self):
        out = fuse_weighted(
            {L.PHASE: 1.0, L.JOB: 0.4},
            weights={L.PHASE: 0.0, L.JOB: 1.0},
        )
        assert out == pytest.approx(0.4)


class TestFisher:
    def test_consistent_evidence_amplifies(self):
        single = fuse_fisher({L.PHASE: 0.9})
        double = fuse_fisher({L.PHASE: 0.9, L.JOB: 0.9})
        assert double > single

    def test_weak_evidence_stays_low(self):
        out = fuse_fisher({L.PHASE: 0.1, L.JOB: 0.1, L.ENVIRONMENT: 0.1})
        assert out < 0.3

    def test_handles_extreme_scores(self):
        out = fuse_fisher({L.PHASE: 1.0, L.JOB: 0.0})
        assert 0.0 <= out <= 1.0


class TestFisherMatchesScipyStats:
    """``fuse_fisher`` calls ``scipy.special.chdtrc``; ``chi2.sf`` is the reference.

    ``ProductionLevel`` has five members, so 1..5 levels cover chi^2 with
    2..10 degrees of freedom.
    """

    GRID = [0.0, 1e-15, 1e-9, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0 - 1e-9, 1.0]

    @staticmethod
    def _reference(scores):
        from scipy.stats import chi2

        stat = 0.0
        for score in scores:
            p = min(max(1.0 - score, 1e-12), 1.0)
            stat += -2.0 * math.log(p)
        return 1.0 - float(chi2.sf(stat, df=2 * len(scores)))

    @pytest.mark.parametrize("k", range(1, len(L) + 1))
    def test_every_level_count(self, k):
        rng = np.random.default_rng(k)
        levels = list(L)[:k]
        rows = [[s] * k for s in self.GRID]
        rows += rng.choice(self.GRID, size=(200, k)).tolist()
        rows += rng.uniform(0.0, 1.0, size=(200, k)).tolist()
        got = [fuse_fisher(dict(zip(levels, row))) for row in rows]
        expected = [self._reference(row) for row in rows]
        np.testing.assert_array_equal(got, expected)


class TestMonotonicity:
    @pytest.mark.parametrize("name", sorted(FUSION_STRATEGIES))
    def test_raising_any_score_never_lowers_fused(self, name):
        base = {L.PHASE: 0.3, L.JOB: 0.5, L.ENVIRONMENT: 0.2}
        raised = dict(base, ENVIRONMENT=0.9)
        raised = {L.PHASE: 0.3, L.JOB: 0.5, L.ENVIRONMENT: 0.9}
        assert fuse(raised, name) >= fuse(base, name) - 1e-12
