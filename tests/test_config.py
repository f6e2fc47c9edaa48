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


# --- every setting reaches the library through config ------------------------------

# a field's name, or a name a single setting was passed under before it had one home
_SETTING_NAMES = {f.name for f in dataclasses.fields(PipelineConfig)} | {
    "threshold", "distance_threshold", "alpha", "dt",
}
# parameters named like a setting that are not one
_NOT_SETTINGS = {
    # a generator's seed (None for fresh entropy), not the pipeline's seed
    ("leadkin.demo", "make_demo_events", "seed"),
    ("leadkin.synth", "sample_submodel", "seed"),
    ("leadkin.synth", "assemble_synthetic", "seed"),
    ("leadkin.validate", "weighted_ks_test", "seed"),
    ("leadkin.validate", "compare_datasets", "seed"),
    ("leadkin.validate", "bootstrap_robustness", "n_synth"),  # the per-rep size, bootstrap --n-synth
    ("leadkin.validate", "check_bootstrap_args", "n_synth"),  # bootstrap_robustness's, checked
    ("leadkin.cli", "stage_generate", "dt"),  # replaces config.profile_dt, through its rule
}

# the functions that took a setting on its own before it had one home
_LIBRARY = [
    pwl.fit_candidates,
    pwl.loss,
    pwl.extract_params,
    pwl.fit_event,
    mvdist.build_all,
    mvdist.detect_point_mass,
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


def test_settings_reach_the_library_only_through_config():
    """No function takes a setting on its own, so every setting passes the
    field's rule; a config the caller may leave out is PipelineConfig()."""
    loose, exempt, defaulted = [], set(), set()
    for fn in _package_functions():
        for name, parameter in inspect.signature(fn).parameters.items():
            key = (fn.__module__, fn.__name__, name)
            if key in _NOT_SETTINGS:
                exempt.add(key)
            elif name in _SETTING_NAMES:
                loose.append(f"{fn.__module__}.{fn.__name__}({name})")
            if name == "config" and parameter.default is not inspect.Parameter.empty:
                assert parameter.default == PipelineConfig(), f"{fn.__module__}.{fn.__name__}"
                defaulted.add(fn)
    assert loose == []
    assert exempt == _NOT_SETTINGS  # no stale exception
    assert set(_LIBRARY) <= defaulted
