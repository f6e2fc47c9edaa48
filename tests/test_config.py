"""The one checked configuration: the library and the CLI share its defaults
and its rules."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import leadkin
from groundtruth import ground_truth_corpus
from leadkin import cli, combine, mvdist, pwl, synth, validate
from leadkin.config import PipelineConfig
from leadkin.errors import InputError
from leadkin.events import SpeedProfile
from leadkin.pwl import sample_weights


def test_cli_uses_the_library_config():
    assert cli.PipelineConfig is PipelineConfig is leadkin.PipelineConfig


def test_fields_cannot_be_set_after_the_rules_ran():
    config = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.n_b_max = 100
    assert config.n_b_max == 3
    with pytest.raises(InputError, match=r"config field n_b_max must be in \[0, 5\], got 100"):
        dataclasses.replace(config, n_b_max=100)


def test_fit_rejects_the_settings_the_cli_rejects():
    times = np.round(np.arange(-5.0, 0.01, 0.1), 10)
    profile = SpeedProfile("p", None, None, times, 10.0 + times, sample_weights(times))
    with pytest.raises(InputError, match=r"config field n_b_max must be in \[0, 5\], got 6"):
        pwl.fit_event(profile, PipelineConfig(n_b_max=6))
    with pytest.raises(InputError, match="config field convergence_tol must be >= 0, got -1"):
        pwl.fit_event(profile, PipelineConfig(convergence_tol=-1))


def test_model_rejects_the_settings_the_cli_rejects():
    corpus = ground_truth_corpus(seed=3, counts=(20, 20, 20))
    with pytest.raises(InputError, match=r"config field alpha_corr must be in \(0, 1\), got 5.0"):
        mvdist.build_all(corpus, PipelineConfig(alpha_corr=5.0))
    with pytest.raises(InputError, match=r"config field mass_threshold must be in \[0, 1\], got -1"):
        mvdist.build_all(corpus, PipelineConfig(mass_threshold=-1))


# --- every default stated once ------------------------------------------------------

# library parameter name -> the PipelineConfig field whose default it takes; a
# library seed is a generator's seed (None for fresh entropy), not the pipeline's
_SETTING_OF = {
    **{f.name: f.name for f in dataclasses.fields(PipelineConfig) if f.name != "seed"},
    "threshold": "mass_threshold",
    "distance_threshold": "d_thd",
    "alpha": "alpha_ks",
    "dt": "profile_dt",
}
# a parameter that shares a field's name but is a setting of its own
_OWN_SETTINGS = {
    ("leadkin.validate", "bootstrap_robustness", "n_synth"),  # the bootstrap's per-rep size, --n-synth
}
_CONFIG_PARAMETERS = ("config", "cfg")

# the functions whose defaults were restated before the settings had one home
_LIBRARY = [
    pwl.fit_candidates,
    pwl.loss,
    pwl.extract_params,
    pwl.fit_event,
    mvdist.build_all,
    mvdist.build_submodels,
    mvdist.detect_point_mass,
    mvdist.fit_hurdle,
    combine.merge_near_crashes,
    validate.compare_datasets,
    validate.bootstrap_robustness,
    validate.weighted_ks_test,
    synth.params_to_profile,
]


def _package_functions():
    for info in pkgutil.iter_modules(leadkin.__path__, "leadkin."):
        module = importlib.import_module(info.name)
        for _, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:
                yield fn


def _setting_defaults(fn):
    """(parameter, default, expected) for each parameter of fn that defaults a setting."""
    for name, parameter in inspect.signature(fn).parameters.items():
        if parameter.default is inspect.Parameter.empty or parameter.default is None:
            continue
        if name in _CONFIG_PARAMETERS:
            yield name, parameter.default, PipelineConfig()
        elif name in _SETTING_OF and (fn.__module__, fn.__name__, name) not in _OWN_SETTINGS:
            yield name, parameter.default, getattr(PipelineConfig, _SETTING_OF[name])


def test_library_defaults_are_the_config_defaults():
    """A default must be the field's class attribute itself: a literal
    restated in another module is another object, even when it is equal."""
    checked = set()
    for fn in _package_functions():
        for name, default, expected in _setting_defaults(fn):
            where = f"{fn.__module__}.{fn.__name__}({name}=...)"
            assert default == expected, where
            if not isinstance(expected, PipelineConfig):
                assert default is expected, f"{where} restates the default of PipelineConfig.{_SETTING_OF[name]}"
            checked.add(fn)
    assert set(_LIBRARY) <= checked
