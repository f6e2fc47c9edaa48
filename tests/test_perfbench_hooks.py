"""The benchmark's tracer wraps package functions by name; a rename or
removal of any of them must fail here rather than in a traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    from leadkin import cli, synth, tables

    hooked = [
        (tables, "read_params_csv"),
        (tables, "read_combined_csv"),
        (tables, "read_synthetic_csv"),
        (cli, "params_to_profile"),
        (cli, "bundles_from_json"),
        (synth, "filter_valid"),
    ]
    originals = [getattr(owner, name) for owner, name in hooked]
    tracer = Tracer()
    tracer.install()
    try:
        for (owner, name), original in zip(hooked, originals):
            assert getattr(owner, name) is not original, f"{name} is not traced"
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in hooked] == originals
