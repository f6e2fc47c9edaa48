import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from leadkin import marginals
from leadkin.errors import AllFitsFailed, InputError, NumericalError
from leadkin.marginals import (
    AffinePre,
    FittedDist,
    fit_family,
    fit_univariate,
    quantile_normalize,
)


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
