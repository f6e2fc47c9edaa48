import codecs
import csv
import dataclasses
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groundtruth import ground_truth_bundles
from leadkin.cli import PipelineConfig, main, run_pipeline
from leadkin.demo import make_demo_events
from leadkin.errors import InputError
from leadkin.events import EventParams, ParamTable, Severity, SourceGroup
from leadkin.mvdist import bundles_to_json
from leadkin.synth import SyntheticDataset
from leadkin.tables import (
    read_combined_csv,
    read_synthetic_csv,
    write_combined_csv,
    write_params_csv,
    write_synthetic_csv,
)

ARTIFACTS = ("params.csv", "combined.csv", "model.json", "synthetic.csv", "report.json")


@pytest.fixture(scope="module")
def demo_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("demo") / "events.csv"
    make_demo_events(path, seed=7)
    return path


def fast_config(demo_csv, workdir):
    return PipelineConfig(
        input=str(demo_csv),
        workdir=str(workdir),
        seed=123,
        n_synth=400,
        n_perm=100,
    )


class TestPipeline:
    def test_full_run_writes_artifacts(self, demo_csv, tmp_path):
        config = fast_config(demo_csv, tmp_path / "out")
        paths = run_pipeline(config)
        assert [p.name for p in paths] == list(ARTIFACTS)
        for p in paths:
            assert p.exists() and p.stat().st_size > 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report["parameters"]) == {"v_c", "a1", "a2", "tau_s", "tau_1", "tau_2"}

    def test_tables_read_back_to_the_same_bytes(self, demo_csv, tmp_path):
        """Writing what was read reproduces the artifact's text; combined.csv's
        attached_to column is written for inspection and not read back."""
        for stage in ("fit", "combine", "model", "generate"):
            run_pipeline(fast_config(demo_csv, tmp_path), stage)
        synthetic, again = tmp_path / "synthetic.csv", tmp_path / "again.csv"
        write_synthetic_csv(again, read_synthetic_csv(synthetic))
        assert again.read_bytes() == synthetic.read_bytes()

        def cells_but_attached_to(path):
            with path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("attached_to")
            return [row[:drop] + row[drop + 1:] for row in rows]

        combined = tmp_path / "combined.csv"
        write_combined_csv(again, read_combined_csv(combined).events)
        assert cells_but_attached_to(again) == cells_but_attached_to(combined)

    def test_single_stage_requires_upstream_artifacts(self, demo_csv, tmp_path):
        config = fast_config(demo_csv, tmp_path / "out")
        rc = main(["pipeline", "--input", str(demo_csv), "--workdir", str(tmp_path / "out"), "--stage", "generate"])
        assert rc == 2  # model artifact missing

    def test_missing_input_exit_code(self, tmp_path, capsys):
        rc = main(["fit", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "params.csv")])
        assert rc == 2
        assert f"error: {tmp_path / 'nope.csv'}: no such file" in capsys.readouterr().err

    def test_config_round_trip(self, tmp_path):
        config = PipelineConfig(seed=9, d_thd=0.5, n_synth=123)
        doc = config.to_json()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        loaded = PipelineConfig.load(path)
        assert loaded == config

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"no_such_knob": 1}))
        rc = main(["--config", str(path), "pipeline"])
        assert rc == 2


class TestCliSubcommands:
    def test_fit_then_combine_then_model(self, demo_csv, tmp_path):
        params = tmp_path / "params.csv"
        combined = tmp_path / "combined.csv"
        model = tmp_path / "model.json"
        assert main(["fit", "--input", str(demo_csv), "--output", str(params), "--seed", "3"]) == 0
        assert params.exists() and params.with_suffix(".counts.json").exists()
        assert main(["combine", "--params", str(params), "--output", str(combined)]) == 0
        quantile_out = tmp_path / "combined_q.csv"
        assert main([
            "combine", "--params", str(params), "--output", str(quantile_out),
            "--d-thd-quantile", "0.6",
        ]) == 0
        assert quantile_out.exists()
        assert main(["model", "--input", str(combined), "--output", str(model)]) == 0
        doc = json.loads(model.read_text())
        assert doc["schema"].startswith("lead-kinematics-model/")
        synthetic = tmp_path / "synthetic.csv"
        profiles = tmp_path / "profiles.csv"
        rc = main([
            "generate", "--model", str(model), "--n", "200", "--seed", "4",
            "--output", str(synthetic), "--profiles-out", str(profiles), "--dt", "0.5",
        ])
        assert rc == 0
        assert len(synthetic.read_text().splitlines()) == 201
        header = profiles.read_text().splitlines()[0]
        assert header == "event_id,t,v"
        report = tmp_path / "report.json"
        rc = main([
            "validate", "--raw", str(combined), "--synthetic", str(synthetic),
            "--alpha", "0.10", "--output", str(report), "--seed", "5",
        ])
        assert rc == 0


# --- exit codes for malformed artifacts --------------------------------------------


def _corrupt_csv(path, column, value):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index(column)] = value
    path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")


@pytest.fixture
def tables_dir(tmp_path):
    events = [
        EventParams(f"e{i}", 3.0 + i, -2.0, -1.0, 0.5, 2.0, 1.0, weight=1.5,
                    source_group=SourceGroup.SHRP2_NSC, severity=Severity.NON_SEVERE)
        for i in range(3)
    ]
    write_params_csv(tmp_path / "params.csv", ParamTable.from_rows(events), [0.9] * 3, [1] * 3, [True] * 3)
    table = ParamTable.from_rows(events)
    write_combined_csv(tmp_path / "combined.csv", table)
    write_synthetic_csv(
        tmp_path / "synthetic.csv",
        SyntheticDataset(table, bundle_ids=("S1",) * len(events)),
    )
    return tmp_path


@pytest.mark.parametrize(
    "artifact, column, value, command",
    [
        ("params.csv", "group", "CISS_xx", ["combine", "--params", "{d}/params.csv", "--output", "{d}/out.csv"]),
        ("params.csv", "a1", "fast", ["combine", "--params", "{d}/params.csv", "--output", "{d}/out.csv"]),
        ("combined.csv", "a1", "fast", ["model", "--input", "{d}/combined.csv", "--output", "{d}/model.json"]),
        ("combined.csv", "tau_1", "nan", ["model", "--input", "{d}/combined.csv", "--output", "{d}/model.json"]),
        ("combined.csv", "weight", "-1", ["model", "--input", "{d}/combined.csv", "--output", "{d}/model.json"]),
        ("synthetic.csv", "a1", "fast", [
            "validate", "--raw", "{d}/combined.csv", "--synthetic", "{d}/synthetic.csv",
            "--output", "{d}/report.json",
        ]),
    ],
)
def test_malformed_table_exits_2(tables_dir, capsys, artifact, column, value, command):
    _corrupt_csv(tables_dir / artifact, column, value)
    assert main([arg.format(d=tables_dir) for arg in command]) == 2
    assert f"{artifact}: line 2: " in capsys.readouterr().err


def _model_doc():
    return bundles_to_json(ground_truth_bundles())


def _drop_share(doc):
    del doc["bundles"][0]["train_weight_share"]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        lambda doc: json.dumps({**doc, "schema": "lead-kinematics-model/0"}),
        lambda doc: json.dumps(doc)[:200],
        _drop_share,
        lambda doc: "[]",
    ],
    ids=["wrong-schema", "truncated", "missing-key", "not-an-object"],
)
def test_malformed_model_exits_2(tmp_path, text):
    model = tmp_path / "model.json"
    model.write_text(text(_model_doc()))
    assert main(["generate", "--model", str(model), "--n", "50", "--output", str(tmp_path / "s.csv")]) == 2


def _drop_scale(params):
    del params["scale"]


def _add_shape(params):
    params["shape"] = 2.0


@pytest.mark.parametrize("edit", [_drop_scale, _add_shape], ids=["missing", "extra"])
def test_marginal_parameter_names_checked(tmp_path, capsys, edit):
    doc = _model_doc()
    marginal = doc["bundles"][0]["correlated"]["marginals"][1]
    assert marginal["family"] == "normal"
    edit(marginal["params"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    argv = ["generate", "--model", str(model), "--n", "50", "--output", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    assert "normal marginal has parameters" in capsys.readouterr().err


def test_generate_logs_rejection_tallies(tmp_path, caplog):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc()))
    argv = ["generate", "--model", str(model), "--n", "50", "--output", str(tmp_path / "s.csv")]
    with caplog.at_level("INFO", logger="leadkin.cli"):
        assert main(argv) == 0
    lines = [r.getMessage() for r in caplog.records if "bundle" in r.getMessage()]
    assert [line.split(":")[1].strip() for line in lines] == ["bundle S2", "bundle S4", "bundle S7"]
    assert lines[0].startswith("generate: bundle S2: 15 accepted, rejected {'range': ")
    assert all("'physical': " in line and "'categorization': " in line for line in lines)


@pytest.mark.parametrize("profiles", [False, True], ids=["table only", "with profiles"])
def test_generate_logs_its_timing(tmp_path, caplog, profiles):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc()))
    argv = ["generate", "--model", str(model), "--n", "50", "--output", str(tmp_path / "s.csv")]
    if profiles:
        argv += ["--profiles-out", str(tmp_path / "p.csv"), "--dt", "0.5"]
    with caplog.at_level("INFO", logger="leadkin.cli"):
        assert main(argv) == 0
    messages = [r.getMessage() for r in caplog.records]
    assert messages[-2] == "generate: 50 events"
    match = re.fullmatch(
        r"generate timing: sample (\d+\.\d{3}) s, write (\d+\.\d{3}) s; 50 synthetic rows, (\d+) profile rows",
        messages[-1],
    )
    assert match, messages[-1]
    rows = int(match[3])
    assert rows == (50 * 11 if profiles else 0)
    if profiles:
        assert len((tmp_path / "p.csv").read_bytes().splitlines()) == 1 + rows


def test_well_formed_model_generates(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc()))
    assert main(["generate", "--model", str(model), "--n", "50", "--output", str(tmp_path / "s.csv")]) == 0


def test_pipeline_seed_18_samples_expnormal_at_k_cap(demo_csv, tmp_path):
    """At seed 18 the model fits an expnormal with k near its 1e4 cap, where
    scipy's brentq-based exponnorm.ppf does not converge; the closed-form
    inverse samples it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_synth": 2000}))
    rc = main([
        "--config", str(config), "pipeline", "--input", str(demo_csv),
        "--workdir", str(tmp_path / "out"), "--seed", "18",
    ])
    assert rc == 0
    assert len(read_synthetic_csv(tmp_path / "out" / "synthetic.csv").events) == 2000


@pytest.mark.parametrize(
    "flags, doc, field",
    [
        (["--nb-max", "-1"], None, "n_b_max"),
        ([], {"n_b_max": "3"}, "n_b_max"),
        ([], {"n_b_max": 2.5}, "n_b_max"),
        ([], {"max_restarts": -3, "convergence_tol": -1}, "max_restarts"),
        ([], {"max_restarts": 0}, "max_restarts"),
        ([], {"convergence_tol": -1}, "convergence_tol"),
        (["--lambda", "0"], None, "penalty"),
        (["--lambda", "nan"], None, "penalty"),
        ([], {"penalty": "0.006"}, "penalty"),
        ([], {"epsilon": -1e-6}, "epsilon"),
        ([], {"epsilon": float("inf")}, "epsilon"),
        ([], {"epsilon": -(10**400)}, "epsilon"),  # too large for a float
        ([], {"steady_slope_tol": -0.05}, "steady_slope_tol"),
        ([], {"steady_slope_tol": True}, "steady_slope_tol"),
        (["--nb-max", "10000000000000000000"], None, "n_b_max"),
        (["--nb-max", "6"], None, "n_b_max"),
    ],
)
def test_bad_fit_settings_exit_2(demo_csv, tmp_path, capsys, flags, doc, field):
    params = tmp_path / "params.csv"
    argv = ["fit", "--input", str(demo_csv), "--output", str(params), *flags]
    if doc is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = ["--config", str(config), *argv]
    assert main(argv) == 2
    assert f"config field {field}" in capsys.readouterr().err
    assert not params.exists()


def test_fit_logs_summary(demo_csv, tmp_path, caplog):
    from collections import Counter

    from leadkin import ingest, pwl
    from leadkin.cli import event_rng

    # three extra near-crashes: samples all before the modeling window
    # (skipped), a convex stop whose fit dips below zero (repaired), and a
    # 2 s record (invalid)
    ts = np.round(np.arange(-5.0, 0.01, 0.1), 10)
    extra = [f"early-000,SHRP2_nc,None,{t - 5.5:.1f},10.0," for t in ts]
    extra += [f"stop-000,SHRP2_nc,None,{t:.1f},{0.8 * t * t:.4f}," for t in ts]
    extra += [f"short-000,SHRP2_nc,None,{t:.1f},10.0," for t in ts[-21:]]
    events = tmp_path / "events.csv"
    text = demo_csv.read_text(encoding="utf-8") + "\n".join(extra) + "\n"
    events.write_text(text, encoding="utf-8")
    params = tmp_path / "params.csv"
    with caplog.at_level("INFO", logger="leadkin.cli"):
        assert main(["fit", "--input", str(events), "--output", str(params)]) == 0
    [summary] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fit: ")]

    rows = list(csv.DictReader(params.open(encoding="utf-8")))
    n_b = dict(sorted(Counter(int(r["n_b"]) for r in rows).items()))
    valid = sum(r["valid"] == "1" for r in rows)
    repairs = 0
    for event in ingest.load_events(events):
        if event.event_id != "early-000":
            fit = pwl.fit_event(ingest.window_event(event), rng=event_rng(0, event.event_id))
            repairs += fit.modified_for_nonnegativity
    assert len(rows) == 54 and repairs > 0 and valid < 54
    assert summary == (
        f"fit: 54 events, {valid} valid, {54 - valid} invalid; n_b histogram {n_b}; "
        f"{repairs} non-negativity repairs; skipped {{'EmptyWindow': 1}}"
    )


def test_fit_skips_an_event_with_one_sample_in_the_window(demo_csv, tmp_path, caplog):
    """An event sampled at 10 Hz up to -5.1 s and once more at -1.0 s has
    one sample in the window: it is skipped, still counted as raw, and the
    run exits 0."""
    ts = [*np.round(np.arange(-9.0, -5.05, 0.1), 10), -1.0]
    rows = [f"b,SHRP2_nc,None,{t:.1f},10.0," for t in ts]
    events = tmp_path / "events.csv"
    events.write_text(demo_csv.read_text(encoding="utf-8") + "\n".join(rows) + "\n", encoding="utf-8")
    params = tmp_path / "params.csv"
    with caplog.at_level("INFO", logger="leadkin.cli"):
        assert main(["fit", "--input", str(events), "--output", str(params)]) == 0
    assert "skipping event b: event 'b': only 1 sample left inside the modeling window" in caplog.text
    [summary] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fit: ")]
    assert summary.startswith("fit: 52 events, ") and summary.endswith("skipped {'EmptyWindow': 1}")
    ids = [row["event_id"] for row in csv.DictReader(params.open(encoding="utf-8"))]
    assert len(ids) == 52 and "b" not in ids
    counts = json.loads((tmp_path / "params.counts.json").read_text(encoding="utf-8"))
    assert counts["raw"]["SHRP2_nc"] == counts["valid"]["SHRP2_nc"] + 1


def test_model_logs_summary(tmp_path, caplog, monkeypatch):
    from collections import Counter

    from groundtruth import ground_truth_corpus
    from leadkin import marginals, mvdist

    combined, model = tmp_path / "combined.csv", tmp_path / "model.json"
    write_combined_csv(combined, ground_truth_corpus(counts=(30, 40, 30)))
    evaluations, runs, fits = [0], [0], [0]
    likelihood, nelder_mead, fit_many = marginals._likelihood, marginals._nelder_mead, mvdist.fit_many

    def counted_likelihood(*args):
        evaluate = likelihood(*args)

        def counted(rows, points):
            evaluations[0] += points.shape[0] * points.shape[1]
            return evaluate(rows, points)

        return counted

    def counted_nelder_mead(evaluate, x0):
        runs[0] += len(x0)
        return nelder_mead(evaluate, x0)

    def counted_fit_many(requests):
        fits[0] += len(requests)
        return fit_many(requests)

    monkeypatch.setattr(marginals, "_likelihood", counted_likelihood)
    monkeypatch.setattr(marginals, "_nelder_mead", counted_nelder_mead)
    monkeypatch.setattr(mvdist, "fit_many", counted_fit_many)
    with caplog.at_level("INFO", logger="leadkin.cli"):
        assert main(["model", "--input", str(combined), "--output", str(model)]) == 0
    [summary] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("model: ")]

    doc = json.loads(model.read_text())
    chosen = {}
    for bundle in doc["bundles"]:
        for m in (bundle["correlated"] or {}).get("marginals", []):
            chosen.setdefault("correlated", Counter())[m["family"]] += 1
        for dist in bundle["uncorrelated"].values():
            if "continuous" in dist:
                family = dist["continuous"]["family"] if dist["continuous"] else "none"
                chosen.setdefault("point-mass", Counter())[family] += 1
            else:
                chosen.setdefault("uncorrelated", Counter())[dist["family"]] += 1
    chosen = {role: dict(sorted(c.items())) for role, c in sorted(chosen.items())}
    assert fits[0] > 0 and runs[0] > 0
    assert summary == (
        f"model: {len(doc['bundles'])} bundles; {fits[0]} univariate fits, {runs[0]} Nelder-Mead runs, "
        f"{evaluations[0]} evaluations; chosen families by role {chosen}; families without a fit {{}}"
    )


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"n_perm": 0}, "n_perm"),
        ({"n_perm": 2.5}, "n_perm"),
        ({"n_synth": -5}, "n_synth"),
        ({"alpha_ks": 7}, "alpha_ks"),
        ({"alpha_ks": 0}, "alpha_ks"),
        ({"alpha_corr": 1}, "alpha_corr"),
        ({"mass_threshold": 1.5}, "mass_threshold"),
        ({"corr_threshold": -0.1}, "corr_threshold"),
        ({"profile_dt": 0}, "profile_dt"),
        ({"d_thd": -1}, "d_thd"),
        ({"seed": -1}, "seed"),
        ({"seed": "7"}, "seed"),
    ],
)
def test_bad_config_fields_exit_2(tables_dir, capsys, doc, field):
    config = tables_dir / "config.json"
    config.write_text(json.dumps(doc))
    argv = ["--config", str(config), "validate", "--raw", str(tables_dir / "combined.csv"),
            "--synthetic", str(tables_dir / "synthetic.csv"), "--output", str(tables_dir / "r.json")]
    assert main(argv) == 2
    assert f"config field {field}" in capsys.readouterr().err
    assert not (tables_dir / "r.json").exists()


@pytest.mark.parametrize("doc, field", [({"workdir": 3}, "workdir"), ({"input": ["x"]}, "input")])
def test_non_path_config_paths_exit_2(tmp_path, monkeypatch, capsys, doc, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert main(["--config", "bad.json", "pipeline"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file bad.json: config field {field}: expected a path")
    assert list(tmp_path.iterdir()) == [tmp_path / "bad.json"]


@pytest.mark.parametrize(
    "command, flags, field",
    [
        ("validate", ["--alpha", "7"], "alpha_ks"),
        ("validate", ["--alpha", "nan"], "alpha_ks"),
        ("model", ["--mass-threshold", "5"], "mass_threshold"),
        ("model", ["--corr-threshold", "-3"], "corr_threshold"),
        ("model", ["--alpha-corr", "nan"], "alpha_corr"),
        ("generate", ["--n", "-5"], "n_synth"),
        ("generate", ["--dt", "0"], "profile_dt"),
        ("combine", ["--d-thd", "-1"], "d_thd"),
        ("bootstrap", ["--n-perm", "0"], "n_perm"),
        ("generate", ["--dt", "1e-300"], "profile_dt"),
    ],
)
def test_bad_stage_flags_exit_2(tables_dir, capsys, command, flags, field):
    d = tables_dir
    inputs = {
        "validate": ["--raw", f"{d}/combined.csv", "--synthetic", f"{d}/synthetic.csv"],
        "model": ["--input", f"{d}/combined.csv"],
        "generate": ["--model", f"{d}/model.json"],
        "combine": ["--params", f"{d}/params.csv"],
        "bootstrap": ["--input", f"{d}/combined.csv"],
    }[command]
    out = d / "out.file"
    assert main([command, *inputs, "--output", str(out), *flags]) == 2
    assert f"config field {field}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt", [0, 1e-300])
def test_generate_dt_argument_is_checked_by_the_profile_dt_rule(tmp_path, dt):
    from leadkin import cli

    model = tmp_path / "model.json"
    model.write_text(json.dumps(_model_doc()))
    with pytest.raises(InputError, match="config field profile_dt must be >= 0.001"):
        cli.stage_generate(PipelineConfig(n_synth=5), model, tmp_path / "s.csv", tmp_path / "p.csv", dt)
    assert list(tmp_path.iterdir()) == [model]


@pytest.mark.parametrize("fractions", ["x", "1.5", "0", "0.9,nan", "0.8,-0.2"])
def test_bad_bootstrap_fractions_exit_2(tables_dir, capsys, fractions):
    out = tables_dir / "bootstrap.json"
    argv = ["bootstrap", "--input", str(tables_dir / "combined.csv"), "--fractions", fractions,
            "--output", str(out)]
    assert main(argv) == 2
    assert "--fractions" in capsys.readouterr().err
    assert not out.exists()


def test_bootstrap_fraction_that_leaves_no_event_exits_2(tables_dir, capsys):
    out = tables_dir / "bootstrap.json"
    argv = ["bootstrap", "--input", str(tables_dir / "combined.csv"), "--fractions", "0.9,0.001",
            "--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --fractions must each leave at least one of the ")
    assert err.endswith(" events, got 0.001\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--reps", "--n-synth"])
def test_bad_bootstrap_counts_exit_2(tables_dir, capsys, flag):
    out = tables_dir / "bootstrap.json"
    argv = ["bootstrap", "--input", str(tables_dir / "combined.csv"), flag, "0", "--output", str(out)]
    assert main(argv) == 2
    assert f"{flag} must be >= 1" in capsys.readouterr().err


_FIELD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([10**400, -(10**400), 0, 1, 2]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.5, 1.0, 1e-300, float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(
    st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)]), _FIELD_VALUES),
    st.dictionaries(st.text(max_size=8), _FIELD_VALUES, max_size=3),
    st.lists(st.integers(), max_size=3),
    st.integers(),
    st.text(max_size=5),
    st.none(),
))
def test_random_config_document_is_a_config_or_an_input_error(doc):
    try:
        config = PipelineConfig.from_json(doc)
    except InputError:
        return
    assert isinstance(config, PipelineConfig)


def _edit_bundle(edit, index=0):
    def apply(doc):
        edit(doc["bundles"][index])
        return json.dumps(doc)

    return apply


def _one_by_one_sigma(bundle):
    assert len(bundle["correlated"]["names"]) == 2
    bundle["correlated"]["sigma"] = [[1.0]]


@pytest.mark.parametrize(
    "text",
    [
        lambda doc: json.dumps({**doc, "bundles": 3}),
        _edit_bundle(lambda b: b.update(train_weight_share="x")),
        _edit_bundle(lambda b: b.update(train_weight_share=b["train_weight_share"] - 0.05)),
        _edit_bundle(lambda b: b.update(label=5)),
        _edit_bundle(_one_by_one_sigma),
        _edit_bundle(lambda b: b["uncorrelated"]["tau_s"].update(mass_probability=1.5), index=1),
        _edit_bundle(lambda b: b["correlated"]["sigma"][0].__setitem__(0, 7.0)),
    ],
    ids=["bundles-not-an-array", "share-not-a-number", "shares-sum-to-0.95", "label-not-an-object",
         "sigma-1x1-for-two-names", "mass-probability-1.5", "sigma-diagonal-7"],
)
def test_malformed_model_document_exits_2(tmp_path, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text(_model_doc()))
    argv = ["generate", "--model", str(model), "--n", "50", "--output", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    assert f"model artifact {model}: " in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def _json_nodes(doc, path=()):
    """Paths to every value inside a JSON document."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _json_nodes(value, path + (key,))


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([10**400, 0.5, -1.0, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.sampled_from(["v_c", "a1", "tau_2", "eq", "ne", "hurdle", "continuous", "normal", "S4"]),
    st.lists(st.integers(0, 2), max_size=2), st.just({}), st.just([[1.0]]),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_edited_model_document_is_a_model_or_an_input_error(tmp_path_factory, data):
    """One value replaced or one key deleted anywhere in a model document:
    generate either succeeds, or exits 2 (input error) or 3 (numerical
    failure), never with a traceback."""
    doc = _model_doc()
    path = data.draw(st.sampled_from(list(_json_nodes(doc))), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_JSON_VALUES, label="value")
    directory = tmp_path_factory.mktemp("model")
    (directory / "model.json").write_text(json.dumps(doc))
    argv = ["generate", "--model", str(directory / "model.json"), "--n", "50",
            "--output", str(directory / "s.csv")]
    assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("quantile", ["3", "-0.1", "nan"])
def test_bad_threshold_quantile_exits_2_before_reading(tmp_path, capsys, quantile):
    out = tmp_path / "combined.csv"
    argv = ["combine", "--params", str(tmp_path / "absent.csv"), "--output", str(out),
            "--d-thd-quantile", quantile]
    assert main(argv) == 2
    assert "threshold quantile must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--model", "{d}/absent.json", "--n", "10000000000000000000"], "config field n_synth"),
        (["bootstrap", "--input", "{d}/absent.csv", "--n-perm", "1000000001"], "config field n_perm"),
        (["bootstrap", "--input", "{d}/absent.csv", "--reps", "1000000001"], "--reps must be"),
        (["bootstrap", "--input", "{d}/absent.csv", "--n-synth", "10000000000000000000"], "--n-synth must be"),
    ],
)
def test_huge_counts_exit_2_before_reading(tmp_path, capsys, argv, message):
    assert main([arg.format(d=tmp_path) for arg in argv]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_count_bound_is_inclusive():
    assert PipelineConfig(n_synth=10**9, n_perm=10**9).n_synth == 10**9
    with pytest.raises(InputError, match=r"n_synth must be in \[1, 1000000000\]"):
        PipelineConfig(n_synth=10**9 + 1)


# --- the fit stage's worker pool ---------------------------------------------------


def _reordered_events(demo_csv, path):
    """The demo corpus with its events in reverse file order, so event ids are
    out of sorted order, and an event with no samples in the window (an
    ``EmptyWindow`` skip) in the middle."""
    header, *lines = demo_csv.read_text(encoding="utf-8").splitlines()
    blocks = {}
    for line in lines:
        blocks.setdefault(line.split(",", 1)[0], []).append(line)
    ts = np.round(np.arange(-5.0, 0.01, 0.1), 10)
    early = [f"early-000,SHRP2_nc,None,{t - 5.5:.1f},10.0," for t in ts]
    ordered = list(reversed(blocks.values()))
    ordered.insert(len(ordered) // 2, early)
    path.write_text("\n".join([header, *(line for block in ordered for line in block)]) + "\n", encoding="utf-8")
    return path


def _fit_with_cpus(monkeypatch, cpus, events, out):
    from leadkin import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    assert main(["fit", "--input", str(events), "--output", str(out / "params.csv")]) == 0
    assert multiprocessing.active_children() == []
    return [(out / name).read_bytes() for name in ("params.csv", "params.counts.json")]


def test_fit_artifacts_do_not_depend_on_the_worker_count(demo_csv, tmp_path, monkeypatch, caplog):
    events = _reordered_events(demo_csv, tmp_path / "events.csv")
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    with caplog.at_level("INFO", logger="leadkin.cli"):
        serial = _fit_with_cpus(monkeypatch, 1, events, tmp_path / "one")
        pooled = _fit_with_cpus(monkeypatch, 2, events, tmp_path / "two")
    assert pooled == serial
    timing = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fit timing: ")]
    assert len(timing) == 2
    for workers, line in zip((1, 2), timing):
        match = re.fullmatch(
            rf"fit timing: {workers} workers, \d+ batches, (\d+\.\d\d) s; "
            rf"per-batch fit s p50 (\d+\.\d{{3}}) p90 (\d+\.\d{{3}})",
            line,
        )
        assert match, line
        seconds, p50, p90 = map(float, match.groups())
        assert seconds > 0 and 0 < p50 <= p90
    ids = [row["event_id"] for row in csv.DictReader(io.StringIO(serial[0].decode("utf-8")))]
    assert len(ids) == 52 and "early-000" not in ids and ids != sorted(ids)
    assert "skipping event early-000" in caplog.text


def test_fit_diverged_in_a_worker_exits_3(demo_csv, tmp_path, monkeypatch, capsys):
    from leadkin import cli, pwl
    from leadkin.errors import FitDiverged

    fit_events = pwl.fit_events

    def diverges_once(profiles, *args, **kwargs):
        for profile in profiles:
            if profile.event_id == "SHRP2_nc-005":
                raise FitDiverged(f"event {profile.event_id!r}: no restart converged")
        return fit_events(profiles, *args, **kwargs)

    monkeypatch.setattr(pwl, "fit_events", diverges_once)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    params = tmp_path / "params.csv"
    assert main(["fit", "--input", str(demo_csv), "--output", str(params)]) == 3
    assert "numerical failure: event 'SHRP2_nc-005': no restart converged" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not params.exists()


# --- marginal parameter domains ---------------------------------------------------


def test_gamma_scale_outside_its_domain_exits_2(tmp_path, capsys):
    doc = _model_doc()
    [s4] = [b for b in doc["bundles"] if b["label"]["id"] == "S4"]
    assert s4["uncorrelated"]["v_c"]["family"] == "gamma"
    s4["uncorrelated"]["v_c"]["params"]["scale"] = -1.0
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "s.csv"
    assert main(["generate", "--model", str(model), "--n", "50", "--output", str(out)]) == 2
    assert "gamma marginal parameters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, params",
    [
        ("normal", {"loc": 0.0, "scale": 0.0}),
        ("skewnormal", {"a": 1.0, "loc": 0.0, "scale": -2.0}),
        ("expnormal", {"k": 0.0, "loc": 0.0, "scale": 1.0}),
        ("gamma", {"shape": -2.0, "scale": 1.0}),
        ("gengamma", {"a": 2.0, "c": 0.0, "scale": 1.0}),
        ("exponential", {"scale": 0.0}),
    ],
)
def test_marginal_outside_its_family_domain_is_an_input_error(family, params):
    from leadkin.marginals import FittedDist

    doc = {"family": family, "params": params, "affine": {"shift": 0.0, "reflect": False}}
    with pytest.raises(InputError, match="outside the family's domain"):
        FittedDist.from_json(doc)
    doc["params"] = {**params, **{k: 1.0 for k in ("scale", "k", "shape", "c") if k in params}}
    assert FittedDist.from_json(doc).family == family


def test_import_leaves_scipy_stats_unloaded():
    """The program runs on scipy.special alone; importing scipy.stats as
    well costs about half a second and 45 MB, so a stray import shows here."""
    import leadkin

    src = str(Path(leadkin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, leadkin.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# --- the exit-code contract through main -------------------------------------------


_NUMBERS = st.one_of(
    st.sampled_from(["1", "2", "0.5", "0.1"]),  # in range for most flags, so a run can get past its checks
    st.sampled_from([
        "-1", "0", "1e-300", "nan", "inf", "-inf", "1e400", "x", "",
        "10000000000000000000", "-10000000000000000000",
    ]),
    st.text(max_size=4),
)
_FLAGS = {  # subcommand -> flag -> the kind of value it takes
    "fit": {"--input": "events", "--output": "out", "--counts-out": "out", "--lambda": "number",
            "--nb-max": "number"},
    "combine": {"--params": "params", "--counts": "counts", "--d-thd": "number",
                "--d-thd-quantile": "number", "--output": "out"},
    "model": {"--input": "combined", "--output": "out", "--mass-threshold": "number",
              "--corr-threshold": "number", "--alpha-corr": "number"},
    "generate": {"--model": "model", "--n": "number", "--output": "out", "--profiles-out": "out",
                 "--dt": "number"},
    "validate": {"--raw": "combined", "--synthetic": "synthetic", "--alpha": "number", "--output": "out"},
    # no well-formed input: a valid bootstrap run takes minutes
    "bootstrap": {"--input": "bad", "--fractions": "fractions", "--reps": "number",
                  "--n-synth": "number", "--n-perm": "number", "--output": "out"},
    "pipeline": {"--input": "events", "--workdir": "out", "--stage": "stage"},
}
_GLOBAL_FLAGS = {"--config": "config", "--seed": "number"}
_REQUIRED = {"fit": ("--input",), "combine": ("--params",), "model": ("--input",), "generate": ("--model",),
             "validate": ("--raw", "--synthetic"), "bootstrap": ("--input",)}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Well-formed and malformed files for every input kind."""
    root = tmp_path_factory.mktemp("inputs")
    ts = np.round(np.arange(-5.0, 0.01, 0.1), 10)
    (root / "events.csv").write_text(
        "event_id,group,severity,t,v,weight\n"
        + "".join(f"e{i},SHRP2_nc,None,{t:.1f},{10.0 + i * t:.2f},\n" for i in range(3) for t in ts),
        encoding="utf-8",
    )
    events = [
        EventParams(f"e{i}", 3.0 + i, -2.0, -1.0, 0.5, 2.0, 1.0, weight=1.5,
                    source_group=SourceGroup.SHRP2_NSC, severity=Severity.NON_SEVERE)
        for i in range(3)
    ]
    write_params_csv(root / "params.csv", ParamTable.from_rows(events), [0.9] * 3, [1] * 3, [True] * 3)
    (root / "counts.json").write_text(json.dumps({"SHRP2_nsc": 3}), encoding="utf-8")
    table = ParamTable.from_rows(events)
    write_combined_csv(root / "combined.csv", table)
    write_synthetic_csv(root / "synthetic.csv", SyntheticDataset(table, bundle_ids=("S1",) * 3))
    (root / "model.json").write_text(json.dumps(_model_doc()), encoding="utf-8")
    (root / "config.json").write_text(json.dumps({"n_synth": 20, "n_perm": 10}), encoding="utf-8")
    (root / "empty.txt").write_text("", encoding="utf-8")
    (root / "garbage.txt").write_text("{[,\n\"a\",1\n", encoding="utf-8")
    (root / "binary.dat").write_bytes(b"\xff\xfe\x00\x9c\n\x81")
    (root / "dir").mkdir()
    bad = [root / "absent.csv", root / "dir", root / "empty.txt", root / "garbage.txt", root / "binary.dat"]
    return {kind: [root / f"{kind}.{ext}", *bad] for kind, ext in (
        ("events", "csv"), ("params", "csv"), ("counts", "json"), ("combined", "csv"),
        ("synthetic", "csv"), ("model", "json"), ("config", "json"),
    )} | {"bad": bad}


def _value(kind, inputs, workdir):
    if kind == "number":
        return _NUMBERS
    if kind == "fractions":
        return st.sampled_from(["0.9,0.8", "1", "0", "1.5", "nan", "x", ",", "", "0.5,-0.5"])
    if kind == "stage":
        return st.sampled_from(["fit", "generate", "validate", "bogus", ""])
    if kind == "out":
        bad = [workdir / "absent" / "out", workdir, inputs["bad"][3] / "out"]
        return st.one_of(st.just(workdir / "out"), st.sampled_from(bad))
    return st.one_of(st.just(inputs[kind][0]), st.sampled_from(inputs[kind]))  # well-formed half the time


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_main_keeps_the_exit_code_contract_for_any_arguments(cli_inputs, tmp_path_factory, data):
    """Random argument lists for every subcommand (unknown flags, bad
    numbers, missing and malformed files): main returns 0, 2 or 3, and
    never raises."""
    workdir = tmp_path_factory.mktemp("run")
    command = data.draw(st.sampled_from([*_FLAGS, "bogus"]), label="command")
    argv = []
    for flags in (_GLOBAL_FLAGS, _FLAGS.get(command, {"--input": "events"})):
        chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True), label="flags")
        if data.draw(st.integers(0, 9), label="keep required") > 0:  # a run that can get past argparse
            chosen += [f for f in _REQUIRED.get(command, ()) if f in flags and f not in chosen]
        for flag in chosen:
            argv += [flag, str(data.draw(_value(flags[flag], cli_inputs, workdir), label=flag))]
        if flags is _GLOBAL_FLAGS:
            argv.append(command)
    argv += data.draw(st.lists(st.sampled_from(["--bogus", "-x", "--verbose", "--n", "7", "--help"]), max_size=1))
    cwd = os.getcwd()
    os.chdir(workdir)  # default output paths are relative
    try:
        assert main(argv) in (0, 2, 3)
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def demo_params(demo_csv, tmp_path_factory):
    params = tmp_path_factory.mktemp("fit") / "params.csv"
    assert main(["fit", "--input", str(demo_csv), "--output", str(params)]) == 0
    return params


@pytest.mark.parametrize("kind", ["counts", "model", "config"])
def test_json_input_with_a_byte_order_mark_gives_the_same_bytes(demo_params, tmp_path, kind):
    """A counts sidecar, model or config saved with a UTF-8 BOM reads as the
    same document without one."""
    plain = {"counts": demo_params.with_suffix(".counts.json"), "model": tmp_path / "model.json",
             "config": tmp_path / "config.json"}
    plain["model"].write_text(json.dumps(_model_doc()), encoding="utf-8")
    plain["config"].write_text(json.dumps({"n_synth": 60, "seed": 3, "d_thd": 0.5}), encoding="utf-8")
    bom = dict(plain, **{kind: tmp_path / f"bom-{plain[kind].name}"})
    bom[kind].write_bytes(codecs.BOM_UTF8 + plain[kind].read_bytes())

    def run(inputs, out):
        if kind == "counts":
            argv = ["combine", "--params", str(demo_params), "--counts", str(inputs["counts"])]
        else:
            argv = ["--config", str(inputs["config"]), "generate", "--model", str(inputs["model"])]
        assert main([*argv, "--output", str(out)]) == 0
        return out.read_bytes()

    assert run(bom, tmp_path / "bom.csv") == run(plain, tmp_path / "plain.csv")


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("events", ["fit", "--input", "{bad}", "--output", "{d}/p.csv"]),
        ("params", ["combine", "--params", "{bad}", "--output", "{d}/c.csv"]),
        ("counts", ["combine", "--params", "{ok}/params.csv", "--counts", "{bad}", "--output", "{d}/c.csv"]),
        ("model", ["generate", "--model", "{bad}", "--output", "{d}/s.csv"]),
        ("config", ["--config", "{bad}", "generate", "--model", "{ok}/model.json", "--output", "{d}/s.csv"]),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_undecodable_input_exits_2_naming_the_file(cli_inputs, tmp_path, capsys, kind, argv):
    good = cli_inputs[kind][0]
    data = good.read_bytes()
    bad = tmp_path / good.name
    bad.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    assert main([arg.format(bad=bad, ok=good.parent, d=tmp_path) for arg in argv]) == 2
    assert f"{bad}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, count, message",
    [
        ("raw", 7, "raw count below the valid count for SHRP2_sc: counts say 7, got 8 valid events"),
        ("valid", 0, "valid count mismatch for SHRP2_sc: counts say 0, got 8 events"),
    ],
)
def test_counts_that_contradict_the_table_exit_2(demo_params, tmp_path, capsys, section, count, message):
    doc = json.loads(demo_params.with_suffix(".counts.json").read_text(encoding="utf-8"))
    assert doc["valid"]["SHRP2_sc"] == 8
    doc[section]["SHRP2_sc"] = count
    counts, out = tmp_path / "counts.json", tmp_path / "combined.csv"
    counts.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["combine", "--params", str(demo_params), "--counts", str(counts), "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rejected_config_document_names_its_file(tables_dir, capsys):
    config = tables_dir / "config.json"
    config.write_text(json.dumps({"no_such_knob": 1}), encoding="utf-8")
    argv = ["--config", str(config), "validate", "--raw", str(tables_dir / "combined.csv"),
            "--synthetic", str(tables_dir / "synthetic.csv"), "--output", str(tables_dir / "r.json")]
    assert main(argv) == 2
    assert f"error: config file {config}: unknown config keys: no_such_knob" in capsys.readouterr().err


def test_malformed_event_row_names_its_file(demo_csv, tmp_path, capsys):
    header, first, *rest = demo_csv.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), first.split(",")), t="x")
    events = tmp_path / "events.csv"
    events.write_text("\n".join([header, ",".join(cells.values()), *rest]) + "\n", encoding="utf-8")
    assert main(["fit", "--input", str(events), "--output", str(tmp_path / "params.csv")]) == 2
    assert f"error: {events}: line 2: non-numeric t 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("samples, message", [
    ([-1.0, -1.0, -0.5], "event 'a': duplicate timestamp t=-1.0"),
    ([-5.0, -4.0, -3.0], "event 'a': sample rate 1 Hz below the 5 Hz minimum"),
], ids=["duplicate timestamp", "sample rate"])
def test_event_level_ingest_error_names_its_file(tmp_path, capsys, samples, message):
    events = tmp_path / "events.csv"
    events.write_text("event_id,group,severity,t,v\n" + "".join(f"a,SHRP2_nc,None,{t},10.0\n" for t in samples),
                      encoding="utf-8")
    assert main(["fit", "--input", str(events), "--output", str(tmp_path / "params.csv")]) == 2
    assert f"error: {events}: {message}" in capsys.readouterr().err


def test_bootstrap_writes_its_report_and_repeats(demo_params, tmp_path):
    combined = tmp_path / "combined.csv"
    assert main(["combine", "--params", str(demo_params), "--output", str(combined)]) == 0
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / f"{run}.json"
        argv = ["bootstrap", "--input", str(combined), "--fractions", "0.9", "--reps", "2",
                "--n-synth", "100", "--n-perm", "50", "--output", str(out)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    report = json.loads(outputs[0])
    assert set(report) == {"alpha", "reps", "failures", "proportions"}
    assert report["reps"] == 2
    assert set(report["failures"]) == set(report["proportions"]) == {"0.9"}
    proportions = report["proportions"]["0.9"]
    assert set(proportions) == {"v_c", "a1", "a2", "tau_s", "tau_1", "tau_2"}
    assert all(0.0 <= p <= 1.0 for p in proportions.values())  # False for NaN, a fraction with no rep
    assert outputs[1] == outputs[0]


def test_combine_without_a_counts_sidecar(demo_params, tmp_path, caplog):
    params, out = tmp_path / "params.csv", tmp_path / "combined.csv"
    params.write_bytes(demo_params.read_bytes())
    with caplog.at_level("WARNING", logger="leadkin.cli"):
        assert main(["combine", "--params", str(params), "--output", str(out)]) == 0
    assert "no counts sidecar; deriving raw counts from the parameter table" in caplog.text
    assert len(read_combined_csv(out).events) > 0


def _duplicate_weight_column(path):
    lines = path.read_text().splitlines()
    lines[0] += ",weight"
    path.write_text("\n".join([lines[0], *(line + ",1.5" for line in lines[1:])]) + "\n")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda path: _corrupt_csv(path, "stage", "CombinedCrash"),
         "line 2: stage 'CombinedCrash' is not CombinedIncident"),
        (_duplicate_weight_column, "duplicate columns: weight"),
    ],
    ids=["mixed-stages", "duplicated-column"],
)
def test_bad_combined_table_exits_2(tables_dir, capsys, corrupt, message):
    combined, model = tables_dir / "combined.csv", tables_dir / "model.json"
    corrupt(combined)
    assert main(["model", "--input", str(combined), "--output", str(model)]) == 2
    assert f"error: {combined}: {message}" in capsys.readouterr().err
    assert not model.exists()


def test_model_logs_the_families_without_a_fit(tmp_path, caplog, monkeypatch):
    from groundtruth import ground_truth_corpus
    from leadkin import marginals, mvdist

    def diverged(y, w):
        raise FloatingPointError("overflow")

    requests, fit_many = [], mvdist.fit_many

    def recorded_fit_many(batch):
        requests.extend(batch)
        return fit_many(batch)

    monkeypatch.setitem(marginals._FAMILIES, "normal", marginals._FAMILIES["normal"]._replace(start=diverged))
    monkeypatch.setattr(mvdist, "fit_many", recorded_fit_many)
    combined, model = tmp_path / "combined.csv", tmp_path / "model.json"
    write_combined_csv(combined, ground_truth_corpus(counts=(30, 40, 30)))
    with caplog.at_level("INFO", logger="leadkin.cli"):
        assert main(["model", "--input", str(combined), "--output", str(model)]) == 0
    [summary] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("model: ")]
    tried = sum("normal" in request.families for request in requests)
    assert tried > 0
    assert summary.endswith(f"families without a fit {{'normal': {tried}}}")
    assert '"family": "normal"' not in model.read_text()
