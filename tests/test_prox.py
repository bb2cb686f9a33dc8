"""Exact ratio proximal operator and shrinkage helpers."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prox_eig_oracle import eig_prox
from prox_oracle import oracle_value
from ratiopt.exceptions import NonConvergence, ZeroVector
from ratiopt.model import Cone, ratio
from ratiopt.prox import (
    ProxQuery,
    fraction_tau,
    hard_shrink_support,
    prox_l1_over_l2,
    soft_threshold,
)


def prox(q, rho, cone=Cone.FREE):
    return prox_l1_over_l2(ProxQuery(np.asarray(q, float), rho, cone))


class TestProxQuery:
    def test_rho_positive(self):
        with pytest.raises(ValueError):
            ProxQuery(np.ones(2), 0.0)

    def test_nonempty(self):
        with pytest.raises(ValueError):
            ProxQuery(np.zeros(0), 1.0)


class TestProxExamples:
    def test_one_sparse_anchor(self):
        res = prox([5.0, 0.0, 0.0], 10.0)
        assert res.x == pytest.approx([5.0, 0.0, 0.0])
        assert res.value == pytest.approx(1.0)

    def test_zero_anchor(self):
        res = prox(np.zeros(3), 10.0)
        assert not np.any(res.x) and res.value == pytest.approx(1.0)

    def test_nonneg_negative_anchor(self):
        res = prox([-5.0, 0.0], 10.0, Cone.NONNEG)
        assert not np.any(res.x)

    def test_equal_magnitude_fixed_point(self):
        # at q = (2, 2) the ratio gradient vanishes, so x = q is stationary
        # and (by the oracle) globally optimal for rho = 1
        res = prox([2.0, 2.0], 1.0)
        assert res.x == pytest.approx([2.0, 2.0], abs=1e-9)
        assert res.value <= oracle_value([2.0, 2.0], 1.0) + 1e-8

    def test_one_dimensional_identity(self):
        # in 1-D the ratio is constant, so the prox returns the anchor for
        # any rho (the weak-coupling branch when rho*q^2 < 1)
        for q, rho in ((0.1, 0.05), (3.0, 20.0), (-0.4, 0.01)):
            res = prox([q], rho)
            assert res.x == pytest.approx([q], abs=1e-10)


class TestProxStructure:
    def test_value_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.standard_normal(6)
            rho = float(10.0 ** rng.uniform(-1, 1))
            res = prox(q, rho)
            direct = ratio(res.x) + 0.5 * rho * float((res.x - q) @ (res.x - q))
            assert res.value == pytest.approx(direct, abs=1e-12)

    def test_sign_consistency_and_exact_zeros(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = rng.standard_normal(5)
            res = prox(q, float(10.0 ** rng.uniform(-1, 1)))
            on = res.support.to_array()
            assert np.all(np.sign(res.x[on]) == np.sign(q[on]))
            off = res.support.complement(5)
            assert np.all(res.x[off] == 0.0)

    def test_stationarity_residual(self):
        # 0 = sign(x)/r - (a/r^3) x + rho (x - q) on the support
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.standard_normal(5) * 2.0
            rho = float(10.0 ** rng.uniform(-1, 1))
            res = prox(q, rho)
            on = res.support.to_array()
            if on.size == 0:
                continue
            a = np.abs(res.x).sum()
            r = np.linalg.norm(res.x)
            resid = (np.sign(res.x[on]) / r - (a / r**3) * res.x[on]
                     + rho * (res.x[on] - q[on]))
            assert np.linalg.norm(resid) <= 1e-10 * (1 + rho)
        # large n, anchor scales 1e+-100 and couplings rho*max|q|^2 over
        # 1e+-8, with ties and zeros: the residual scales like 1/s under
        # (q, rho) -> (s q, rho / s^2), so it is measured against its terms
        cases = itertools.product(
            (1, 2, 7, 256, 2048), (1e-100, 1.0, 1e100),
            (1e-8, 1e-4, 1e-2, 1.0, 3.0, 30.0, 1e4, 1e8),
            (Cone.FREE, Cone.NONNEG))
        for n, scale, coupling, cone in cases:
            q = 0.05 * rng.standard_normal(n)
            spikes = rng.choice(n, min(n, 12), replace=False)
            q[spikes] += rng.choice([-1.0, 1.0], spikes.size) \
                * (0.5 + rng.random(spikes.size))
            q[rng.choice(n, n // 4, replace=False)] = 0.0
            q = np.round(64.0 * q) / 64.0
            if n > 1:
                q[spikes[1]] = -q[spikes[0]]
            q *= scale
            rho = coupling / float(np.max(np.abs(q))) ** 2
            res = prox(q, rho, cone)
            on = res.support.to_array()
            if on.size == 0:
                continue
            x = res.x[on]
            a, r = np.abs(x).sum(), np.linalg.norm(x)
            resid = (np.sign(x) / r - (a / r) * (x / r) / r
                     + rho * (x - q[on]))
            size = np.sqrt(on.size) / r + rho * np.linalg.norm(q[on])
            assert np.linalg.norm(resid) <= 1e-12 * size

    def test_support_is_prefix_of_sorted_anchor(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.standard_normal(6)
            res = prox(q, float(10.0 ** rng.uniform(-1, 1)))
            k = len(res.support)
            prefix = set(np.argsort(-np.abs(q), kind="stable")[:k])
            assert set(res.support.indices) == prefix

    def test_removing_smallest_support_entry_never_improves(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = rng.standard_normal(4) * 1.5
            rho = float(10.0 ** rng.uniform(-1, 1))
            res = prox(q, rho)
            k = len(res.support)
            if k < 2:
                continue
            order = np.argsort(-np.abs(q), kind="stable")
            sub = np.sort(order[:k - 1])
            mask = np.zeros(4, bool)
            mask[sub] = True
            off = float(q[~mask] @ q[~mask])
            from prox_oracle import _restricted_min
            sub_best = _restricted_min(np.abs(q[sub]), rho) + 0.5 * rho * off
            assert sub_best >= res.value - 1e-8

    def test_oracle_agreement_smoke(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 5))
            q = rng.standard_normal(n) * (10.0 ** rng.uniform(-1, 1))
            rho = float(10.0 ** rng.uniform(-2, 2))
            cone = Cone.NONNEG if trial % 2 else Cone.FREE
            res = prox(q, rho, cone)
            assert res.value <= oracle_value(
                q, rho, nonneg=(cone is Cone.NONNEG)) + 1e-8


class TestProxEdgeCases:
    """Cases at the seams of the bracket search, each against both oracles."""

    @staticmethod
    def check(q, rho, cone=Cone.FREE):
        res = prox(q, rho, cone)
        nonneg = cone is Cone.NONNEG
        assert res.value <= oracle_value(q, rho, nonneg=nonneg) + 1e-8
        ref = eig_prox(ProxQuery(np.asarray(q, float), rho, cone))
        assert res.value <= ref.value + 1e-12 * (1.0 + abs(ref.value))
        return res

    def test_one_sparse_double_root(self):
        # on prefix 1 the quartic is (rho p - t)^2 (p^2 t^2 - 1): the double
        # root t = rho p sits at the open end of the bracket (m = 0), the
        # candidate is t = 1/p, which is x = q on the top entry
        res = self.check([5.0, 0.1, -0.05], 1.0)
        assert res.x.tolist() == [5.0, 0.0, 0.0]
        assert res.value == pytest.approx(1.0 + 0.5 * (0.1**2 + 0.05**2))

    def test_one_dimensional_weak_coupling(self):
        # rho q^2 < 1 puts the 1-D stationary point on the c < 0 branch
        res = self.check([0.3], 0.5)
        assert res.x.tolist() == [0.3] and res.value == 1.0

    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 1.5, 3.0])
    def test_tied_top_block_both_sides_of_threshold(self, factor):
        # q = (2, 2, 2, 1): the tied block is stationary with c <= 0 exactly
        # when rho sqrt(3) 2^2 <= 1; below the threshold the top entry alone
        # wins, above it the block does until the tail entry joins
        rho = factor / (4.0 * np.sqrt(3.0))
        res = self.check([2.0, 2.0, 2.0, 1.0], rho)
        expected = {0.5: 1, 0.9: 1, 1.1: 1, 1.5: 3, 3.0: 4}[factor]
        assert len(res.support) == expected
        if expected < 4:
            assert res.x[:expected].tolist() == [2.0] * expected

    def test_block_stationary_point_on_a_breakpoint(self):
        # at rho = 1/(2 sqrt 3) the block's threshold 1/(rho ||x||) equals the
        # tail anchor: prefix 4 then has its root at the open end of its
        # bracket, with m_4 = 0, and must not add the tail entry
        res = self.check([2.0, 2.0, 2.0, 1.0], 1.0 / (2.0 * np.sqrt(3.0)))
        assert res.support.indices == (0, 1, 2)
        assert res.x.tolist() == [2.0, 2.0, 2.0, 0.0]

    @pytest.mark.parametrize("rho", [0.05, 0.2, 0.5, 1.0, 3.0, 10.0])
    def test_tie_inside_leaves_an_empty_bracket(self, rho):
        # p_2 = p_3 makes the bracket of prefix 2 empty: a c > 0 support
        # never splits tied anchors
        res = self.check([3.0, -2.0, 2.0, 1.0], rho)
        assert len(res.support) != 2

    def test_bracket_with_two_roots(self):
        # found by a seeded search and confirmed by the eigenvalue oracle: on
        # prefix 2 the quartic is negative at both ends of [0, rho p_2) =
        # [0, 1.9287) and has the roots t = 1.5554 and 1.9213 inside, so an
        # endpoint sign test alone finds no candidate; the minimizer keeps
        # both entries
        q, rho = [0.45, -0.46], 4.286
        res = self.check(q, rho)
        assert res.support.indices == (0, 1)
        assert res.value == pytest.approx(1.413792822646396, abs=1e-12)

    def test_nonneg_with_no_positive_anchor(self):
        res = self.check([-1.0, -2.0, 0.0], 3.0, Cone.NONNEG)
        assert not np.any(res.x) and len(res.support) == 0
        assert res.value == 1.0 + 1.5 * 5.0

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_extreme_anchor_scales(self, scale):
        # (q, rho) -> (s q, rho / s^2) maps minimizers by x -> s x and keeps
        # the value; ||q||^2 and rho ||q||^2 stay representable at 1e+-150
        rng = np.random.default_rng(9)
        for cone in (Cone.FREE, Cone.NONNEG):
            for _ in range(10):
                q = rng.standard_normal(6)
                rho = float(10.0 ** rng.uniform(-2, 2))
                base = prox(q, rho, cone)
                res = prox(scale * q, rho / scale**2, cone)
                assert res.support == base.support
                assert res.value == pytest.approx(base.value, rel=1e-12)
                np.testing.assert_allclose(res.x / scale, base.x, rtol=1e-9,
                                           atol=0.0)

    @pytest.mark.parametrize("cone", [Cone.FREE, Cone.NONNEG])
    @pytest.mark.parametrize("q, rho", [
        (np.array([3.0, 2.0, 1.0, 0.5]) * 1e150, 1.0),
        (np.array([3.0, 2.0, 1.0, 0.5]), 1e300),
    ])
    def test_huge_coupling(self, q, rho, cone):
        # rho*max|q|^2 near 1e301: the minimizer differs from q by less than
        # the rounding of q, so nothing may overflow and the value is ratio(q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = prox(q, rho, cone)
        assert res.value <= ratio(q) * (1.0 + 1e-12)
        assert res.support.indices == (0, 1, 2, 3)

    @pytest.mark.parametrize("cone", [Cone.FREE, Cone.NONNEG])
    def test_tied_top_block_keeps_lowest_index(self, cone):
        # at small rho the top entry alone wins; of a tied top block the
        # support takes the lowest index, however a sort orders the ties
        rng = np.random.default_rng(0)
        long = rng.uniform(0.1, 1.0, 20)
        long[[2, 3, 16]] = 2.0
        for q, first in (([1.0, 2.0, 0.5, 2.0, 2.0], 1), (long, 2)):
            q = np.asarray(q)
            res = prox(q, 0.01, cone)
            assert res.support.indices == (first,)
            assert res.x[first] == 2.0
            assert res.value == pytest.approx(1.0 + 0.005 * (q @ q - 4.0))


class TestTiedAnchorsAgainstOracle:
    """Anchors with ties and zeros (entries rounded to halves), where the
    brute-force oracle's bounded quasi-Newton solves once stepped outside
    their bounds."""

    def test_tied_and_zero_anchors(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(1, 5))
            q = np.round(2.0 * rng.standard_normal(n)) / 2.0 \
                * 10.0 ** rng.uniform(-2, 2)
            rho = float(10.0 ** rng.uniform(-3, 3))
            cone = Cone.NONNEG if trial % 2 else Cone.FREE
            res = prox(q, rho, cone)
            assert res.value <= oracle_value(
                q, rho, nonneg=(cone is Cone.NONNEG)) + 1e-8


class TestEigOracleEquivalence:
    """Large-n agreement with the companion-eigenvalue pass.

    The problem is invariant under (q, rho) -> (s q, rho / s^2), so the
    sweep covers the anchor scale and the coupling rho * max|q|^2 over
    1e+-8 each.  Anchors are a few spikes over Gaussian noise, as in ADMM.
    """

    def test_large_n(self):
        rng = np.random.default_rng(2024)
        for n in (256, 2048, 4096):
            for scale in (1e-8, 1.0, 1e8):
                for coupling in (1e-8, 1e-2, 1.0, 3.0, 10.0, 30.0, 1e2, 1e3,
                                 1e8):
                    for cone in (Cone.FREE, Cone.NONNEG):
                        q = 0.05 * rng.standard_normal(n)
                        spikes = rng.choice(n, 12, replace=False)
                        q[spikes] += rng.choice([-1.0, 1.0], 12) \
                            * (0.5 + rng.random(12))
                        q *= scale
                        rho = coupling / float(np.max(np.abs(q))) ** 2
                        query = ProxQuery(q, rho, cone)
                        try:
                            ref = eig_prox(query)
                        except NonConvergence:
                            continue
                        res = prox_l1_over_l2(query)
                        tol = 1e-12 * (1.0 + abs(ref.value))
                        assert res.value <= ref.value + tol
                        if abs(res.value - ref.value) > tol:
                            assert res.support == ref.support


class TestHardShrink:
    def test_support_selector(self):
        xhat, supp = hard_shrink_support([3.0, 0.5, -2.0], 1.0)
        assert xhat == pytest.approx([3.0, 0.0, -2.0])
        assert supp.indices == (0, 2)

    def test_tau_zero_is_identity(self):
        x = np.array([0.0, 1.5, -0.2])
        xhat, supp = hard_shrink_support(x, 0.0)
        assert xhat == pytest.approx(x)
        assert supp.indices == (1, 2)

    def test_everything_removed(self):
        xhat, supp = hard_shrink_support([0.1, -0.2], 1.0)
        assert not np.any(xhat) and len(supp) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-100, 100).filter(
               lambda v: v == 0.0 or abs(v) > 1e-6), min_size=1, max_size=8),
           st.floats(0, 10))
    def test_support_matches_rescaling_formula(self, entries, tau):
        # entries away from the underflow region, where the rescaling
        # formula's product cannot denormalize to zero
        x = np.array(entries)
        _, supp = hard_shrink_support(x, tau)
        literal = np.maximum(np.abs(x) - tau, 0.0) * x
        assert set(supp.indices) == set(np.flatnonzero(literal != 0.0))


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold([3.0], 1.0) == pytest.approx([2.0])
        assert soft_threshold([-0.5], 1.0) == pytest.approx([0.0])
        assert soft_threshold([0.0], 1.0) == pytest.approx([0.0])


class TestFractionTau:
    def test_uniform_vector(self):
        assert fraction_tau([1.0, 1.0, 1.0, 1.0], 0.3) == pytest.approx(1.0)

    def test_two_scales(self):
        assert fraction_tau([10.0, 0.1], 0.5) == pytest.approx(0.1)

    def test_zero_fraction(self):
        assert fraction_tau([3.0, 1.0], 0.0) == 0.0

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            fraction_tau(np.zeros(3), 0.5)
