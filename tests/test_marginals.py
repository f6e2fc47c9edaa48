import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from leadkin import marginals
from leadkin.errors import AllFitsFailed, InputError, NumericalError
from leadkin.marginals import (
    AffinePre,
    FitRequest,
    FittedDist,
    fit_family,
    fit_many,
    fit_univariate,
    quantile_normalize,
)
from leadkin.tally import tally


class TestAffinePre:
    def test_identity(self):
        a = AffinePre()
        x = np.array([-1.0, 0.0, 2.5])
        assert np.array_equal(a.inverse(a.forward(x)), x)

    def test_reflect_and_shift_roundtrip(self):
        a = AffinePre(shift=-3.5, reflect=True)
        x = np.array([-9.0, -2.0, -0.1])
        assert np.allclose(a.inverse(a.forward(x)), x)


class TestFitUnivariate:
    def test_normal_recovery(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, 1.0, 10000)
        fitted = fit_univariate(x, np.ones_like(x))
        assert fitted.family in ("normal", "skewnormal", "expnormal")
        d = fitted
        # recovered moments regardless of the selected family
        grid = np.linspace(-6, 6, 4001)
        pdf = np.exp(d.logpdf(grid))
        mean = np.trapezoid(grid * pdf, grid)
        var = np.trapezoid((grid - mean) ** 2 * pdf, grid)
        assert mean == pytest.approx(0.0, abs=0.05)
        assert np.sqrt(var) == pytest.approx(1.0, abs=0.05)

    def test_exponential_data_matches_analytic_mle(self):
        rng = np.random.default_rng(11)
        x = rng.exponential(0.5, 5000)
        exact = fit_family("exponential", x, np.ones_like(x))
        assert exact.params["scale"] == pytest.approx(x.mean(), abs=1e-12)
        fitted = fit_univariate(x, families=("gamma", "gengamma", "exponential"))
        assert fitted.aic <= exact.aic + 2.0
        # the default family list approximates the exponential through gamma
        default_fit = fit_univariate(x)
        assert default_fit.family in ("gamma", "expnormal")
        assert abs(default_fit.aic - exact.aic) < 2.0 + 2.0  # parameter-count slack

    def test_constant_data_fails(self):
        with pytest.raises(AllFitsFailed):
            fit_univariate(np.full(50, 3.0))

    def test_weight_rescaling_keeps_selection(self):
        rng = np.random.default_rng(12)
        x = rng.gamma(3.0, 1.0, 400)
        w = rng.uniform(0.5, 2.0, 400)
        f1 = fit_univariate(x, w)
        f2 = fit_univariate(x, w * 37.0)
        assert f1.family == f2.family
        assert f1.aic == pytest.approx(f2.aic, rel=1e-9)
        for key in f1.params:
            assert f1.params[key] == pytest.approx(f2.params[key], rel=1e-6)

    def test_negative_support_data_uses_affine(self):
        rng = np.random.default_rng(13)
        x = -rng.gamma(3.0, 1.0, 3000)
        fitted = fit_family("gamma", x, np.ones_like(x))
        assert fitted.affine.reflect
        assert fitted.params["shape"] == pytest.approx(3.0, abs=0.3)
        # cdf stays monotone on the original axis
        grid = np.linspace(x.min(), x.max(), 500)
        assert (np.diff(fitted.cdf(grid)) >= 0).all()

    def test_bug_in_a_family_fitter_propagates(self, monkeypatch):
        def broken(y, w):
            raise TypeError("not a numerical failure")

        monkeypatch.setitem(marginals._FAMILIES, "skewnormal", marginals._FAMILIES["skewnormal"]._replace(start=broken))
        with pytest.raises(TypeError, match="not a numerical failure"):
            fit_univariate(np.random.default_rng(15).normal(size=200))

    def test_value_error_in_a_family_fitter_propagates(self, monkeypatch):
        def broken(y, w):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setitem(marginals._FAMILIES, "gamma", marginals._FAMILIES["gamma"]._replace(start=broken))
        with pytest.raises(ValueError, match="could not be broadcast"):
            fit_univariate(np.random.default_rng(16).gamma(2.0, 1.5, size=200))

    def test_numerical_failure_skips_the_family_and_is_counted(self, monkeypatch, caplog):
        def diverged(y, w):
            raise FloatingPointError("overflow")

        monkeypatch.setitem(marginals._FAMILIES, "skewnormal", marginals._FAMILIES["skewnormal"]._replace(start=diverged))
        with caplog.at_level("INFO", logger="leadkin.marginals"):
            fitted = fit_univariate(np.random.default_rng(15).normal(size=200))
        assert fitted.family != "skewnormal"
        assert "1 of 4 families failed" in caplog.text

    @pytest.mark.parametrize("family, part", [("skewnormal", "start"), ("normal", "logpdf"), ("gamma", "logpdf")])
    def test_numerical_failure_is_tallied_and_the_others_still_compete(self, monkeypatch, family, part):
        """A FloatingPointError while a family is started or scored leaves
        the choice to the other families and counts as that family's
        missing fit."""
        x = np.random.default_rng(18).gamma(2.0, 1.5, size=200)
        others = tuple(f for f in marginals.CONTINUOUS_FAMILIES if f != family)
        [expected] = fit_many([FitRequest(x, families=others)])

        def diverged(*args):
            raise FloatingPointError("overflow")

        monkeypatch.setitem(marginals._FAMILIES, family, marginals._FAMILIES[family]._replace(**{part: diverged}))
        with tally() as work:
            [chosen] = fit_many([FitRequest(x)])
        assert (chosen.family, chosen.params, chosen.aic) == (expected.family, expected.params, expected.aic)
        assert work.failed == {family: 1}
        assert work.univariate_fits == 1

    def test_ruled_out_samples_are_failures_not_fits(self):
        x = np.random.default_rng(19).normal(size=200)
        with tally() as work:
            few, nonfinite, fine = fit_many([FitRequest(x[:4]), FitRequest([*x[:9], np.nan]), FitRequest(x)])
        assert isinstance(few, AllFitsFailed) and "need at least 5 effective samples" in str(few)
        assert isinstance(nonfinite, AllFitsFailed) and "values must be finite" in str(nonfinite)
        assert isinstance(fine, FittedDist)
        assert work.univariate_fits == 1

    def test_weighted_mle_against_scipy_reference(self):
        rng = np.random.default_rng(14)
        x = rng.normal(2.0, 3.0, 2000) + rng.exponential(2.0, 2000)
        mine = fit_family("expnormal", x, np.ones_like(x))
        k, loc, scale = stats.exponnorm.fit(x)
        ll_scipy = stats.exponnorm(k, loc=loc, scale=scale).logpdf(x).sum()
        assert mine.loglik >= ll_scipy - 0.5


class TestQuantileNormalize:
    def gamma(self):
        return fit_family("gamma", np.random.default_rng(0).gamma(2.0, 1.5, 500), np.ones(500))

    def test_median_maps_to_zero(self):
        d = self.gamma()
        median = d.ppf(0.5)
        assert quantile_normalize(np.array([median]), d)[0] == pytest.approx(0.0, abs=1e-9)

    def test_standard_normal_identity(self):
        d = FittedDist(family="normal", params={"loc": 0.0, "scale": 1.0})
        x = np.linspace(-3, 3, 21)
        assert np.allclose(quantile_normalize(x, d), x, atol=1e-9)

    def test_round_trip(self):
        d = self.gamma()
        x = d.ppf(np.linspace(0.05, 0.95, 19))
        z = quantile_normalize(x, d)
        # the inverse map: standard normal cdf, then the fitted quantile function
        back = d.ppf(np.clip(stats.norm.cdf(z), 1e-10, 1.0 - 1e-10))
        assert np.abs(back - x).max() < 1e-6

    def test_json_round_trip(self):
        d = fit_family("gamma", -np.random.default_rng(1).gamma(2.0, 1.0, 300), np.ones(300))
        doc = d.to_json()
        back = FittedDist.from_json(doc)
        x = np.linspace(-6, -0.1, 50)
        assert np.allclose(back.cdf(x), d.cdf(x))


class TestFamilyTable:
    @pytest.mark.parametrize(
        "family, params, reference",
        [
            ("normal", {"loc": 1.0, "scale": 2.0}, stats.norm(loc=1.0, scale=2.0)),
            ("gamma", {"shape": 3.0, "scale": 2.0}, stats.gamma(3.0, scale=2.0)),
            ("gengamma", {"a": 2.0, "c": 1.5, "scale": 2.0}, stats.gengamma(2.0, 1.5, scale=2.0)),
            ("exponential", {"scale": 2.0}, stats.expon(scale=2.0)),
        ],
        # pinned so that each family's case keeps its name; expnormal and
        # skewnormal are checked in TestExpnormalPpf and TestSkewnormalPpf,
        # because their ppfs are not scipy's
        ids=[
            "normal-params0-reference0",
            "gamma-params3-reference3",
            "gengamma-params4-reference4",
            "exponential-params5-reference5",
        ],
    )
    def test_frozen_from_parameter_names(self, family, params, reference):
        u = np.linspace(0.01, 0.99, 9)
        assert np.array_equal(FittedDist(family=family, params=params).ppf(u), reference.ppf(u))

    def test_unknown_family_in_json_is_an_input_error(self):
        doc = FittedDist(family="normal", params={"loc": 0.0, "scale": 1.0}).to_json()
        with pytest.raises(InputError):
            FittedDist.from_json({**doc, "family": "cauchy"})

    def test_expnormal_ppf_at_fitted_k_cap(self):
        # fitted at the k = 1e4 cap; scipy's brentq inverse does not converge at this u
        d = FittedDist(
            family="expnormal",
            params={"k": 9999.999997762154, "loc": 2.52747310683026, "scale": 0.0008972654682683459},
        )
        assert d.ppf(np.array([0.0026669573462327896]))[0] == pytest.approx(2.5514348055853735, rel=1e-12)


# Quantiles of the standard EMG X = Z + k E (loc 0, scale 1) at EXPNORMAL_U,
# computed once with 50-digit mpmath (not a dependency of this package):
#
#     mp.mp.dps = 50
#     tail = lambda x: mp.exp(1 / (2 * k**2) - x / k) * mp.ncdf(x - 1 / k)
#     f = (lambda x: mp.ncdf(x) - tail(x) - u) if u <= 0.5 else (lambda x: (1 - u) - mp.ncdf(-x) - tail(x))
#
# with k = mp.mpf(k) and u = mp.mpf(u) taken from the doubles below, by
# bisecting f to a bracket width of 1e-40 relative.
EXPNORMAL_U = (1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-10)
EXPNORMAL_REFERENCE = {
    1e-4: (-6.361240934197611, -4.7533243325828245, -3.090132321616126, -1.281451571952144, 9.999999966666668e-05, 1.2816515719525725, 3.0903323216218253, 4.75352433259141, 6.361440921517287),
    1e-3: (-6.3603440699774785, -4.752426678359329, -3.0892338484387905, -1.2805522061056642, 0.0009999996666676, 1.2825522065339119, 3.0912338541384896, 4.75442669275035, 6.362344083582476),
    0.05: (-6.317947525744135, -4.708589312882225, -3.0437665876550537, -1.233123360613287, 0.04995862141059102, 1.3331762489771448, 3.1444818074990337, 4.81043218211293, 6.42141085642166),
    0.5: (-6.137044822539003, -4.498575607110325, -2.790639962285057, -0.9039422710191447, 0.47286772005730404, 1.9320159838868314, 4.452444737471943, 7.9077552787559355, 12.512925423600045),
    3.0: (-5.887654394781972, -4.177297397593794, -2.333917638746814, -0.07454250683958126, 2.236272384756287, 7.074421945647734, 20.889932503613075, 41.613198340473225, 69.24421920826694),
    50.0: (-5.425392839911589, -3.538034149271658, -1.2515874574979382, 5.2780257699468, 34.667359027997264, 115.1392546497023, 345.39776394910683, 690.7855278967759, 1151.3025423600045),
    1e4: (-4.424888158903745, -1.9383431724704383, 10.005053335835335, 1053.605206578263, 6931.471855599453, 23025.85097994046, 69077.55283982136, 138155.10562935518, 230258.5085220009),
}


def _rel_err(x, reference):
    """Error relative to max(1, |x|), the scale of a standardized quantile."""
    return np.abs(x - reference) / np.maximum(1.0, np.abs(reference))


class TestExpnormalPpf:
    @pytest.mark.parametrize("k", sorted(EXPNORMAL_REFERENCE))
    def test_matches_50_digit_reference(self, k):
        x = FittedDist(family="expnormal", params={"k": k, "loc": 0.0, "scale": 1.0}).ppf(np.array(EXPNORMAL_U))
        assert _rel_err(x, np.array(EXPNORMAL_REFERENCE[k])).max() <= 1e-11

    @pytest.mark.parametrize("k", sorted(EXPNORMAL_REFERENCE))
    def test_matches_scipy_where_it_converges(self, k):
        x = FittedDist(family="expnormal", params={"k": k, "loc": 0.0, "scale": 1.0}).ppf(np.array(EXPNORMAL_U))
        for u, xi in zip(EXPNORMAL_U, x):
            try:
                reference = stats.exponnorm(k).ppf(u)
            except RuntimeError:  # scipy's brentq gives up
                continue
            assert _rel_err(xi, reference) <= 1e-7

    def test_loc_and_scale_against_scipy(self):
        u = np.linspace(0.01, 0.99, 9)
        y = FittedDist(family="expnormal", params={"k": 0.5, "loc": 1.0, "scale": 2.0}).ppf(u)
        x, reference = (y - 1.0) / 2.0, (stats.exponnorm(0.5, loc=1.0, scale=2.0).ppf(u) - 1.0) / 2.0
        assert _rel_err(x, reference).max() <= 1e-7

    def test_endpoints_and_shape(self):
        d = FittedDist(family="expnormal", params={"k": 0.5, "loc": 1.0, "scale": 2.0})
        assert d.ppf(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]
        assert d.ppf(np.full((2, 3), 0.5)).shape == (2, 3)
        assert d.ppf(0.5) == pytest.approx(1.0 + 2.0 * EXPNORMAL_REFERENCE[0.5][4], rel=1e-12)

    @pytest.mark.parametrize("nan_in", ["k", "scale", "u"])
    def test_nan_is_a_numerical_error(self, nan_in):
        params = {"k": 0.5, "loc": 1.0, "scale": 2.0}
        u = np.array([0.5, 0.7])
        if nan_in == "u":
            u[1] = np.nan
        else:
            params[nan_in] = np.nan
        with pytest.raises(NumericalError, match="expnormal ppf"):
            FittedDist(family="expnormal", params=params).ppf(u)

    @settings(max_examples=200, deadline=None)
    @given(
        log_k=st.floats(-4.0, 4.0),
        loc=st.floats(-10.0, 10.0),
        log_scale=st.floats(-3.0, 3.0),
        u=st.lists(st.floats(1e-10, 1.0 - 1e-10), min_size=1, max_size=20),
    )
    def test_monotone_and_inverts_scipy_cdf(self, log_k, loc, log_scale, u):
        k, scale = 10.0**log_k, 10.0**log_scale
        # probabilities closer than ~1e-6 of their tail mass can swap order
        # within the evaluation's rounding, so only separated ones are compared
        u = np.sort(np.array(u))
        tail = np.minimum(u, 1.0 - u)
        u = u[np.concatenate(([True], np.diff(u) > 1e-6 * tail[1:]))]
        y = FittedDist(family="expnormal", params={"k": k, "loc": loc, "scale": scale}).ppf(u)
        assert (np.diff(y) >= 0).all()
        reference = stats.exponnorm(k, loc=loc, scale=scale)
        back = np.where(u <= 0.5, reference.cdf(y) / u, reference.sf(y) / (1.0 - u))
        assert np.abs(back - 1.0).max() <= 1e-9


# Quantiles of the standard skew normal of shape a (loc 0, scale 1) at
# SKEWNORMAL_U, computed once with 50-digit mpmath (not a dependency of this
# package), with k(h) = lambda t: mp.exp(-h**2 * (1 + t**2) / 2) / (1 + t**2):
#
#     mp.mp.dps = 50
#     T = lambda h, b: mp.quad(k(h), [0, b]) / (2 * mp.pi)           # Owen's T, b >= 0
#     cdf(x, b) = mp.quad(k(x), [b, mp.inf]) / mp.pi if x < 0 else mp.ncdf(x) - 2 * T(x, b)
#     sf(x, b) = mp.ncdf(-x) + 2 * T(x, b)
#
# for b = a >= 0, with cdf(x, a) = sf(-x, -a) and sf(x, a) = cdf(-x, -a) for
# a < 0.  The root of cdf(x) = u (u <= 0.5) or sf(x) = 1 - u (u > 0.5), with
# a = mp.mpf(a) and u = mp.mpf(u) taken from the doubles below, was found by
# Newton steps on the pdf 2 phi(x) Phi(a x) until a step was below 1e-40
# relative.  100 is the shape's fit bound.
SKEWNORMAL_U = (1e-10, 1e-6, 1e-2, 0.5, 1 - 1e-2, 1 - 1e-6, 1 - 1e-10)
SKEWNORMAL_REFERENCE = {
    -100.0: (-6.466951087240516, -4.89163847569859, -2.575829303548901, -0.6744897501960817, -0.011968892084971325, 0.03303870774051462, 0.05264138549570327),
    -20.0: (-6.466951087240516, -4.89163847569859, -2.575829303548901, -0.6744897501960817, 0.01710823792882146, 0.18517006307948597, 0.27688454375467386),
    -3.0: (-6.466951087240516, -4.89163847569859, -2.5758293035489004, -0.671993979143918, 0.43680531158281616, 1.3097235242394796, 1.8527818571919472),
    -0.5: (-6.466877940195855, -4.890515393122315, -2.5476236022939536, -0.35309121396616355, 1.8011324956302919, 4.022017639984064, 5.484131277852086),
    -0.001: (-6.362136763125104, -4.754220680709195, -2.327145017864133, -0.0007978841255253131, 2.325549249219794, 4.752624910810326, 6.360540979226665),
    0.001: (-6.360540991933296, -4.752624910816137, -2.325549249219794, 0.0007978841255253131, 2.3271450178641326, 4.7542206807033836, 6.362136750418474),
    0.5: (-5.484131289385203, -4.022017639989359, -1.8011324956302923, 0.35309121396616355, 2.547623602293953, 4.8905153931166465, 6.466877927686022),
    3.0: (-1.8527818614294809, -1.3097235242414733, -0.43680531158281627, 0.671993979143918, 2.5758293035489004, 4.891638475692932, 6.466951074732419),
    20.0: (-0.27688454445781896, -0.18517006307983067, -0.01710823792882149, 0.6744897501960817, 2.5758293035489004, 4.891638475692932, 6.466951074732419),
    100.0: (-0.052641385643157707, -0.03303870774059025, 0.011968892084971313, 0.6744897501960817, 2.5758293035489004, 4.891638475692932, 6.466951074732419),
}


class TestSkewnormalPpf:
    @staticmethod
    def dist(a, loc=0.0, scale=1.0):
        return FittedDist(family="skewnormal", params={"a": a, "loc": loc, "scale": scale})

    @pytest.mark.parametrize("a", sorted(SKEWNORMAL_REFERENCE))
    def test_matches_50_digit_reference(self, a):
        # the tails included: Phi(x) - 2 T(x, a) cancels below the median
        # when a > 0 (and above it when a < 0), where scipy's inverse loses
        # up to 2e-8
        x = self.dist(a).ppf(np.array(SKEWNORMAL_U))
        assert _rel_err(x, np.array(SKEWNORMAL_REFERENCE[a])).max() <= 1e-12

    @pytest.mark.parametrize("a", sorted(SKEWNORMAL_REFERENCE))
    def test_matches_scipy_where_boost_is_accurate(self, a):
        u = np.linspace(0.01, 0.99, 99)
        assert _rel_err(self.dist(a).ppf(u), stats.skewnorm(a).ppf(u)).max() <= 1e-13
        # in the tails Boost's own error reaches 2e-8 (see the reference test)
        tails = np.array(SKEWNORMAL_U)
        assert _rel_err(self.dist(a).ppf(tails), stats.skewnorm(a).ppf(tails)).max() <= 1e-7

    def test_loc_and_scale_against_scipy(self):
        u = np.linspace(0.01, 0.99, 9)
        y = self.dist(3.0, loc=1.0, scale=2.0).ppf(u)
        x, reference = (y - 1.0) / 2.0, (stats.skewnorm(3.0, loc=1.0, scale=2.0).ppf(u) - 1.0) / 2.0
        assert _rel_err(x, reference).max() <= 1e-13

    def test_endpoints_and_shape(self):
        for a in (-20.0, 0.0, 3.0):
            assert self.dist(a, 1.0, 2.0).ppf(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]
        d = self.dist(3.0, loc=1.0, scale=2.0)
        assert d.ppf(np.full((2, 3), 0.5)).shape == (2, 3)
        assert d.ppf(0.5) == pytest.approx(1.0 + 2.0 * SKEWNORMAL_REFERENCE[3.0][3], rel=1e-14)

    def test_zero_shape_is_the_normal(self):
        u = np.array([1e-10, 1e-3, 0.3, 0.5, 0.9, 1 - 1e-10])
        assert _rel_err(self.dist(0.0).ppf(u), stats.norm.ppf(u)).max() <= 1e-15

    @pytest.mark.parametrize("a", [1e-3, 0.5, 3.0, 100.0, 1e6])
    def test_reflection(self, a):
        u = np.array([2.0**-53, 2.0**-33, 2.0**-7, 0.25, 0.375, 0.5])  # 1 - (1 - u) == u
        assert np.array_equal(self.dist(-a).ppf(u), -self.dist(a).ppf(1.0 - u))

    @pytest.mark.parametrize("nan_in", ["a", "loc", "scale", "u"])
    def test_nan_is_a_numerical_error(self, nan_in):
        params = {"a": 3.0, "loc": 1.0, "scale": 2.0}
        u = np.array([0.5, 0.7])
        if nan_in == "u":
            u[1] = np.nan
        else:
            params[nan_in] = np.nan
        with pytest.raises(NumericalError, match="skewnormal ppf"):
            FittedDist(family="skewnormal", params=params).ppf(u)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(1e-3, 100.0) | st.floats(-100.0, -1e-3),
        loc=st.floats(-10.0, 10.0),
        log_scale=st.floats(-3.0, 3.0),
        u=st.lists(st.floats(1e-10, 1.0 - 1e-10), min_size=1, max_size=20),
    )
    def test_round_trip_through_scipy_cdf(self, a, loc, log_scale, u):
        scale = 10.0**log_scale
        u = np.sort(np.array(u))
        tail = np.minimum(u, 1.0 - u)
        u = u[np.concatenate(([True], np.diff(u) > 1e-6 * tail[1:]))]  # as for the expnormal
        y = self.dist(a, loc, scale).ppf(u)
        assert (np.diff(y) >= 0).all()
        # below a tail mass of 1e-6 scipy's cdf switches from Boost to a
        # quadrature that is off by up to 2% there; the reference test pins
        # those quantiles instead
        reference = stats.skewnorm(a, loc=loc, scale=scale)
        checked = np.minimum(u, 1.0 - u) >= 1e-6
        u, y = u[checked], y[checked]
        back = np.where(u <= 0.5, reference.cdf(y) / u, reference.sf(y) / (1.0 - u))
        assert np.abs(back - 1.0).max(initial=0.0) <= 1e-9


# The cdf of each family's standard form (loc 0, scale 1) at the points
# below, near its quantiles of CDF_U, computed once with 50-digit mpmath
# (not a dependency of this package):
#
#     mp.mp.dps = 50
#     normal       mp.ncdf(x)
#     skewnormal   cdf(x, a) as for SKEWNORMAL_REFERENCE, or sf(-x, -a) for a < 0
#     expnormal    mp.ncdf(x) - tail(x), with tail(x) as for EXPNORMAL_REFERENCE
#     gamma        mp.gammainc(a, 0, x, regularized=True)
#     gengamma     mp.gammainc(a, 0, x**c, regularized=True) for c > 0,
#                  mp.gammainc(a, x**c, mp.inf, regularized=True) for c < 0
#     exponential  -mp.expm1(-x)
#
# with x and the shapes mp.mpf of the doubles below.  The points are the
# package's quantiles at CDF_U, rounded to 4 significant digits.
CDF_U = (1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-10)
CDF_REFERENCE = {
    ('normal', ()): (
        (-6.361, -4.753, -3.09, -1.282, 0.0, 1.282, 3.09, 4.753, 6.361),
        (1.0022222246427048e-10, 1.002101739975321e-06, 0.0010007824766140108, 0.09992132311338286, 0.5, 0.9000786768866171, 0.9989992175233859, 0.9999989978982601, 0.9999999998997777),
    ),
    ('skewnormal', (-20.0,)): (
        (-6.467, -4.892, -3.291, -1.645, -0.6745, -0.1256, 0.07828, 0.1852, 0.2769),
        (9.996764959823931e-11, 9.98164447389199e-07, 0.0009983191327637795, 0.09996981107824272, 0.4999934857273983, 0.8999722963711322, 0.9989998150292562, 0.9999990024944939, 0.9999999999001817),
    ),
    ('skewnormal', (0.5,)): (
        (-5.484, -4.022, -2.502, -0.8376, 0.3531, 1.556, 3.279, 4.891, 6.467),
        (1.0009423237612845e-10, 1.0000957993946717e-06, 0.001001467765665834, 0.09999541046087035, 0.5000037547981057, 0.8999920347807402, 0.9989991527275679, 0.9999990024553895, 0.9999999999000807),
    ),
    ('skewnormal', (5.0,)): (
        (-1.133, -0.7902, -0.4138, 0.08051, 0.6745, 1.645, 3.291, 4.892, 6.467),
        (9.929850012110706e-11, 9.994243158468133e-07, 0.0010000793972917243, 0.099998493333386, 0.5000183495752528, 0.9000301889217572, 0.9990016808672362, 0.9999990018355526, 0.9999999999000323),
    ),
    ('skewnormal', (100.0,)): (
        (-0.05264, -0.03304, -0.007762, 0.1257, 0.6745, 1.645, 3.291, 4.892, 6.467),
        (1.0007778122697286e-10, 9.995087666171179e-07, 0.0009999158026925035, 0.10003059813234277, 0.5000065142726017, 0.9000301889217572, 0.9990016808672362, 0.9999990018355526, 0.9999999999000323),
    ),
    ('expnormal', (0.001,)): (
        (-6.36, -4.752, -3.089, -1.281, 0.001, 1.283, 3.091, 4.754, 6.362),
        (1.0022428944474674e-10, 1.0021134879166858e-06, 0.0010007876729284596, 0.09992143550543302, 0.5000000001329803, 0.9000785644193192, 0.9989992123078695, 0.9999989978864408, 0.9999999998997757),
    ),
    ('expnormal', (0.5,)): (
        (-6.137, -4.499, -2.791, -0.9039, 0.4729, 1.932, 4.452, 7.908, 12.51),
        (1.0002872212889443e-10, 9.9794752682139e-07, 0.0009988267652155081, 0.10000701826588587, 0.5000117399640068, 0.8999976560617052, 0.9989991139106872, 0.9999990004893227, 0.9999999998994132),
    ),
    ('expnormal', (50.0,)): (
        (-5.425, -3.538, -1.252, 5.278, 34.67, 115.1, 345.4, 690.8, 1151.0),
        (1.0022663181335562e-10, 1.0001369877034513e-06, 0.0009991392469837778, 0.09999953614087172, 0.5000264090225663, 0.8999214598739782, 0.9990000447200179, 0.9999990002894001, 0.999999999899393),
    ),
    ('expnormal', (10000.0,)): (
        (-4.425, -1.938, 10.01, 1054.0, 6931.0, 23030.0, 69080.0, 138200.0, 230300.0),
        (9.994605609215446e-11, 1.0009025486131025e-06, 0.001000494171627825, 0.10003553070658726, 0.4999764066633993, 0.900041481594602, 0.9990002446860773, 0.9999990044793746, 0.999999999900414),
    ),
    ('gamma', (0.3,)): (
        (3.236e-34, 6.973e-21, 6.973e-11, 0.0003237, 0.07313, 0.8848, 4.619, 10.98, 19.81),
        (9.999591915006152e-11, 1.0000129461651103e-06, 0.0010000129461490183, 0.09999771876958893, 0.49999779809297495, 0.8999983804564448, 0.999000072246479, 0.9999989948659194, 0.999999999900347),
    ),
    ('gamma', (4.0,)): (
        (0.007009, 0.07099, 0.4286, 1.745, 3.672, 6.681, 13.06, 21.35, 31.7),
        (9.999495902841317e-11, 9.99867176216182e-07, 0.0010004067122284606, 0.10003563754051968, 0.4999872543178806, 0.9000135269782948, 0.9989982306381906, 0.99999899960404, 0.9999999999000924),
    ),
    ('gamma', (300.0,)): (
        (202.6, 224.7, 249.3, 278.0, 299.7, 322.4, 356.4, 389.6, 423.7),
        (9.949103137594349e-11, 9.85994922258717e-07, 0.0009974854295220234, 0.09970186072596979, 0.5007667145700184, 0.8999978477120588, 0.9990024978243858, 0.999998989779185, 0.9999999999012474),
    ),
    ('gengamma', (2.0, 1.5)): (
        (0.0005848, 0.0126, 0.1273, 0.6564, 1.412, 2.473, 4.401, 6.53, 8.851),
        (9.999723731769543e-11, 9.992454250731955e-07, 0.0010007598011693858, 0.09999810439347252, 0.49984295234360726, 0.8999414353990296, 0.9989993239593408, 0.9999989983502636, 0.9999999998998362),
    ),
    ('gengamma', (0.5, 6.0)): (
        (0.0004458, 0.009605, 0.09605, 0.4462, 0.7813, 1.052, 1.325, 1.512, 1.66),
        (9.997127977886386e-11, 9.998783547137944e-07, 0.000999878093010258, 0.0999775523501246, 0.4999932055205183, 0.90033951601103, 0.9989972285720291, 0.9999989836231342, 0.9999999999013669),
    ),
    ('gengamma', (3.0, -0.7)): (
        (0.008086, 0.01476, 0.03159, 0.09177, 0.2453, 0.8704, 10.68, 304.6, 24620.0),
        (9.994429731610406e-11, 1.0022457513502146e-06, 0.0010004522177832478, 0.09999281709653957, 0.49993847939445846, 0.9000054040467891, 0.9989998087324841, 0.9999989998329454, 0.9999999999000302),
    ),
    ('exponential', ()): (
        (1e-10, 1e-06, 0.001001, 0.1054, 0.6931, 2.303, 6.908, 13.82, 23.03),
        (9.999999999500001e-11, 9.999995000001667e-07, 0.0010004991666253415, 0.10003553520640958, 0.4999764091635173, 0.9000414820943945, 0.9990002446910761, 0.9999990044793795, 0.999999999900414),
    ),
}
# Relative tolerance of each family's cdf.  The skew normal's
# Phi(x) - 2 T(x, a) cancels where 0 < -a x < 3, to 1.3e-11 relative at worst
# for a <= 100 (see _THIN_AX); every other kernel is within 1e-14 here.
CDF_TOLERANCE = {"skewnormal": 2e-11}
SCIPY_DIST = {
    "normal": stats.norm,
    "skewnormal": stats.skewnorm,
    "expnormal": stats.exponnorm,
    "gamma": stats.gamma,
    "gengamma": stats.gengamma,
    "exponential": stats.expon,
}


def _standard(family, *shapes):
    """The family's standard form (loc 0, scale 1)."""
    names = marginals._FAMILIES[family].names
    shape_names = [n for n in names if n not in ("loc", "scale")]
    params = {"loc": 0.0, "scale": 1.0, **dict(zip(shape_names, shapes))}
    return FittedDist(family=family, params={n: params[n] for n in names})


class TestCdf:
    @pytest.mark.parametrize("family, shapes", list(CDF_REFERENCE))
    def test_matches_50_digit_reference(self, family, shapes):
        x, reference = (np.array(v) for v in CDF_REFERENCE[family, shapes])
        p = _standard(family, *shapes).cdf(x)
        assert (np.abs(p - reference) / reference).max() <= CDF_TOLERANCE.get(family, 5e-14)

    def test_skewnormal_thin_side(self):
        # scipy's skewnorm.cdf gives 4.589e-9: below a tail mass of 1e-6 it
        # switches to a quadrature that is off by up to 2% there.  The
        # reference is the mpmath integral (1/pi) int_a^inf of the
        # SKEWNORMAL_REFERENCE kernel k(x), at 50 digits.
        p = _standard("skewnormal", 83.85).cdf(np.array([-0.0546]))
        assert p[0] == pytest.approx(4.4848572273269795e-09, rel=1e-12)
        # the same tail through a negative shape, as 1 - cdf to the
        # resolution of doubles near 1
        sf = 1.0 - _standard("skewnormal", -83.85).cdf(np.array([0.0546]))[0]
        assert sf == pytest.approx(4.4848572273269795e-09, rel=1e-7)

    @pytest.mark.parametrize("family, shapes", list(CDF_REFERENCE))
    def test_cdf_inverts_ppf(self, family, shapes):
        u = np.concatenate([CDF_U, np.linspace(0.01, 0.99, 99)])
        d = _standard(family, *shapes)
        back = d.cdf(d.ppf(u))
        assert (np.abs(back - u) <= 1e-9 * np.minimum(u, 1.0 - u) + np.spacing(u)).all()


@pytest.mark.parametrize("family, shapes", list(CDF_REFERENCE))
def test_scipy_bits_where_the_kernels_are_scipys(family, shapes):
    """Every log-density, and the cdf of all but the two Newton-inverted
    families, repeats scipy's operations: equal to the bit, tails, support
    ends, infinities and NaN included.  The quantiles at 0 and 1 are the
    support's ends, as scipy's."""
    d = _standard(family, *shapes)
    params = {**d.params, "scale": 2.0, **({"loc": 1.0} if "loc" in d.params else {})}
    d = FittedDist(family, params)
    reference = SCIPY_DIST[family](*shapes, loc=params.get("loc", 0.0), scale=2.0)
    x = np.concatenate([np.linspace(-30.0, 30.0, 241), [0.0, 1e-300, np.inf, -np.inf, np.nan]])
    with np.errstate(all="ignore"):
        assert np.array_equal(d.logpdf(x), reference.logpdf(x), equal_nan=True)
        if family not in ("skewnormal", "expnormal"):
            assert np.array_equal(d.cdf(x), reference.cdf(x), equal_nan=True)
    assert np.array_equal(d.ppf(np.array([0.0, 1.0])), reference.ppf([0.0, 1.0]))


class TestDomain:
    # 0, both signs, the smallest doubles, the infinities and NaN
    EDGES = (0.0, -0.0, -1.0, -1e-300, 1e-300, 2.5, np.inf, -np.inf, np.nan)

    @pytest.mark.parametrize("family", sorted(SCIPY_DIST))
    def test_shapes_as_scipy_argcheck(self, family):
        dist = SCIPY_DIST[family]
        spec = marginals._FAMILIES[family]
        for shapes in itertools.product(self.EDGES, repeat=dist.numargs):
            assert bool(spec.domain(*shapes)) == bool(dist._argcheck(*shapes)), shapes

    @pytest.mark.parametrize("family", sorted(SCIPY_DIST))
    def test_from_json_rejects_what_scipy_rejects(self, family):
        names = marginals._FAMILIES[family].names
        finite = [v for v in self.EDGES if np.isfinite(v)]  # JSON has no inf or NaN
        for values in itertools.product(finite, repeat=len(names)):
            params = dict(zip(names, values))
            doc = {"family": family, "params": params, "affine": {"shift": 0.0, "reflect": False}}
            shapes = [params[n] for n in names if n not in ("loc", "scale")]
            if params["scale"] > 0 and SCIPY_DIST[family]._argcheck(*shapes):
                assert FittedDist.from_json(doc).params == params
            else:
                with pytest.raises(InputError, match="outside the family's domain"):
                    FittedDist.from_json(doc)
