"""The benchmark's tracer wraps package functions by name, and its output
checks read artifacts through the package's API; a rename or removal of
any of them must fail here rather than in a benchmark run."""

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


def test_output_checks_pass_on_a_small_pipeline(tmp_path):
    """The benchmark's artifact checks read the program's tables and models
    through its API (``read_combined_csv(...).events``, ``describe``,
    ``ConstraintSet.rejection_reason``); an API change that breaks them must
    fail here, not only in a benchmark run."""
    import json

    import checks
    import workloads

    workload = workloads.Workload("small-x1", scale=1, n_synth=200, n_perm=50, profiles=True)
    n_events = workloads.setup(workload, tmp_path)
    for _, call in workloads.stage_calls(workload, seed=1, workdir=tmp_path):
        call()
    paths = workloads.artifact_paths(tmp_path)
    assert checks.check_fit(paths["params"], paths["counts"], n_events) == []
    assert checks.check_combine(paths["combined"]) == []
    assert checks.check_model(paths["model"]) == []
    assert checks.check_generate(paths["model"], paths["synthetic"], workload.n_synth, paths["profiles"],
                                 workload.profile_points) == []
    assert checks.check_validate(paths["report"]) == []

    summary = checks.summarize(paths)
    counts = json.loads(paths["counts"].read_text(encoding="utf-8"))
    combined_rows = len(paths["combined"].read_text(encoding="utf-8").splitlines()) - 1
    bundles = json.loads(paths["model"].read_text(encoding="utf-8"))["bundles"]
    assert summary["counts"] == {
        "params_valid": sum(counts["valid"].values()),
        "combined_rows": combined_rows,
        "synthetic_rows": workload.n_synth,
        "bundles": len(bundles),
    }
    assert set(summary["describe"]) == {"params", "combined", "synthetic"}
    assert checks.check_reference(paths, summary) == {}
