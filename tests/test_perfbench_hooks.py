"""The benchmark's tracer wraps package functions by name; a rename or
removal of any of them must fail here rather than in a traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    from leadkin import cli, synth, tables, validate

    hooked = [
        (tables, "read_params_csv"),
        (tables, "read_combined_csv"),
        (tables, "read_synthetic_csv"),
        (tables, "write_profiles_csv"),
        (cli, "params_to_profile"),
        (cli, "bundles_from_json"),
        (cli, "assemble_synthetic"),
        (validate, "assemble_synthetic"),
        (synth, "sample_submodel"),
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


def test_tracer_counters_see_a_small_pipeline(tmp_path):
    """The counters take len() of what the traced functions return or take
    (sampled and accepted tables, near-crash table, read and written tables)."""
    from leadkin import cli
    from leadkin.demo import make_demo_events

    make_demo_events(tmp_path / "events.csv", seed=7)
    config = cli.PipelineConfig(
        input=str(tmp_path / "events.csv"), workdir=str(tmp_path / "out"), n_synth=200, n_perm=50
    )
    tracer = Tracer()
    tracer.install()
    try:
        cli.run_pipeline(config)
    finally:
        tracer.uninstall()
    count = tracer.counters
    rejected = sum(v for k, v in count.items() if k.startswith("synth.rejected."))
    # every draw is accepted or rejected; a batch may accept more rows than are kept
    assert count["synth.draws"] >= 200
    assert count["synth.accepted"] >= 200
    assert count["synth.accepted"] + rejected == count["synth.draws"]
    assert count["combine.nc_total"] == 20
    assert 0 < count["combine.nc_attached"] <= 20
    assert count["tables.rows_read"] > 0
    assert count["tables.rows_written"] >= 200


def test_tracer_counts_profile_rows_of_a_traced_generate(tmp_path):
    """The profile writer is fed an iterable of profiles, each counted by
    its number of samples: 51 at dt 0.1, next to one synthetic row per event."""
    import json

    from groundtruth import ground_truth_bundles
    from leadkin import cli
    from leadkin.mvdist import bundles_to_json

    model = tmp_path / "model.json"
    model.write_text(json.dumps(bundles_to_json(ground_truth_bundles())))
    config = cli.PipelineConfig(n_synth=120, seed=3)
    tracer = Tracer()
    tracer.install()
    try:
        cli.stage_generate(config, model, tmp_path / "synthetic.csv", tmp_path / "profiles.csv", 0.1)
    finally:
        tracer.uninstall()
    assert tracer.counters["tables.rows_written"] == 120 + 120 * 51
    assert len((tmp_path / "profiles.csv").read_text().splitlines()) == 1 + 120 * 51
    assert [s.name for s in tracer.spans].count("synth.params_to_profile") == 1
