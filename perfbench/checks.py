"""Output checks for one benchmark iteration.

Every check reads the artifacts a stage wrote and returns a list of failure
reasons; an empty list means the artifact passed.  A missing, truncated or
malformed artifact is a failure reason, never an exception, so the runner
counts it as a failed operation.

Byte equality is not a gate: a numerically equivalent rewrite (say, an
inverse CDF exact to 1e-11) may change the last digits.  Instead the
weighted mean and SD of every parameter (``leadkin.validate.describe``) of
the parameter table, the combined dataset and the synthetic dataset must
stay within ``DESCRIBE_TOL`` of a recorded reference, when one exists for
the workload and seed; sha256 equality with the reference is reported as
information only.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from leadkin import mvdist, tables, validate
from leadkin.errors import LeadkinError
from leadkin.events import PARAM_NAMES, EventParams
from leadkin.synth import ConstraintSet

# Tolerances against the recorded reference.  Fit and combine are
# deterministic, so their statistics may differ only by round-off; the
# synthetic sample may flip a few draws at constraint boundaries when the
# sampler's arithmetic changes, so it gets 1% of the reference SD.
DESCRIBE_TOL = {
    "params": {"rel": 1e-6, "sd_share": 0.0},
    "combined": {"rel": 1e-6, "sd_share": 0.0},
    "synthetic": {"rel": 1e-6, "sd_share": 0.01},
}

ARTIFACT_ERRORS = (OSError, ValueError, KeyError, TypeError, IndexError, csv.Error, LeadkinError)


def guarded(check):
    """Turn an exception raised while reading an artifact into a reason."""

    @functools.wraps(check)
    def run(*args, **kwargs) -> List[str]:
        try:
            return list(check(*args, **kwargs))
        except ARTIFACT_ERRORS as exc:
            return [f"{check.__name__}: unreadable artifact: {type(exc).__name__}: {exc}"]

    return run


def _rows(path) -> List[dict]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict, names) -> bool:
    return all(math.isfinite(float(row[name])) for name in names)


def _load_bundles(model_json) -> Dict[str, mvdist.SubmodelBundle]:
    doc = json.loads(Path(model_json).read_text(encoding="utf-8"))
    return {b.bundle_id: b for b in mvdist.bundles_from_json(doc)}


@guarded
def check_fit(params_csv, counts_json, n_events: int):
    rows = _rows(params_csv)
    counts = json.loads(Path(counts_json).read_text(encoding="utf-8"))
    if sum(counts["raw"].values()) != n_events:
        yield f"fit: raw count {sum(counts['raw'].values())} != {n_events} input events"
    if not 0 < len(rows) <= n_events:
        yield f"fit: {len(rows)} parameter rows for {n_events} input events"
    valid = sum(1 for r in rows if r["valid"] == "1")
    if valid != sum(counts["valid"].values()):
        yield f"fit: {valid} valid rows but counts sidecar says {sum(counts['valid'].values())}"
    bad = sum(1 for r in rows if not _finite(r, PARAM_NAMES))
    if bad:
        yield f"fit: {bad} rows with non-finite parameters"


@guarded
def check_combine(combined_csv):
    rows = _rows(combined_csv)
    if not rows:
        yield "combine: no rows"
    bad = sum(1 for r in rows if not (_finite(r, PARAM_NAMES) and float(r["weight"]) > 0))
    if bad:
        yield f"combine: {bad} rows with non-finite parameters or non-positive weight"


@guarded
def check_model(model_json):
    bundles = _load_bundles(model_json)
    if not bundles:
        yield "model: no bundles"
    share = sum(b.train_weight_share for b in bundles.values())
    if abs(share - 1.0) > 1e-6:
        yield f"model: bundle weight shares sum to {share!r}"


@guarded
def check_generate(model_json, synthetic_csv, n_synth: int, profiles_csv=None, profile_points=0):
    """Exactly n_synth rows, each accepted by its bundle's constraints."""
    bundles = _load_bundles(model_json)
    rows = _rows(synthetic_csv)
    if len(rows) != n_synth:
        yield f"generate: {len(rows)} synthetic rows, expected {n_synth}"
    constraints = {bid: ConstraintSet(bundle=b) for bid, b in bundles.items()}
    rejected = []
    for r in rows:
        if r["bundle"] not in constraints:
            rejected.append((r["event_id"], f"unknown bundle {r['bundle']!r}"))
            continue
        event = EventParams(event_id=r["event_id"], **{n: float(r[n]) for n in PARAM_NAMES})
        reason = constraints[r["bundle"]].rejection_reason(event)
        if reason is not None:
            rejected.append((r["event_id"], reason))
    if rejected:
        yield f"generate: {len(rejected)} rows violate their bundle's constraints, first {rejected[0]}"
    if profiles_csv is not None:
        prof = _rows(profiles_csv)
        if len(prof) != n_synth * profile_points:
            yield f"generate: {len(prof)} profile rows, expected {n_synth * profile_points}"
        bad = sum(1 for r in prof if not (math.isfinite(float(r["v"])) and float(r["v"]) >= -1e-9))
        if bad:
            yield f"generate: {bad} profile samples negative or non-finite"


@guarded
def check_validate(report_json):
    doc = json.loads(Path(report_json).read_text(encoding="utf-8"))
    params = doc["parameters"]
    if sorted(params) != sorted(PARAM_NAMES):
        yield f"validate: report covers {sorted(params)}"
    for name, r in params.items():
        if not 0.0 < r["p_value"] <= 1.0:
            yield f"validate: p-value of {name} is {r['p_value']!r}"
        if not 0.0 <= r["statistic"] <= 1.0:
            yield f"validate: KS statistic of {name} is {r['statistic']!r}"


# --- reference -----------------------------------------------------------------


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def summarize(paths: Dict[str, Path]) -> dict:
    """Statistics compared against the reference; raises on unreadable input."""
    params = tables.read_params_csv(paths["params"])
    combined = tables.read_combined_csv(paths["combined"])
    synthetic = tables.read_synthetic_csv(paths["synthetic"])
    return {
        "describe": {
            "params": validate.describe(params),
            "combined": validate.describe(combined),
            "synthetic": validate.describe(synthetic),
        },
        "counts": {
            "params_valid": len(params),
            "combined_rows": len(combined.events),
            "synthetic_rows": len(synthetic.events),
            "bundles": len(_load_bundles(paths["model"])),
        },
    }


def check_reference(paths: Dict[str, Path], reference: Optional[dict]) -> Dict[str, List[str]]:
    """Reasons per stage ("fit", "combine", "generate", "model") for drift."""
    if reference is None:
        return {}
    try:
        got = summarize(paths)
    except ARTIFACT_ERRORS as exc:
        return {"fit": [f"reference: unreadable artifact: {type(exc).__name__}: {exc}"]}
    stage_of = {"params": "fit", "combined": "combine", "synthetic": "generate"}
    count_stage = {"params_valid": "fit", "combined_rows": "combine", "synthetic_rows": "generate", "bundles": "model"}
    out: Dict[str, List[str]] = {}
    for name, want in reference["counts"].items():
        if got["counts"][name] != want:
            out.setdefault(count_stage[name], []).append(
                f"reference: {name} {got['counts'][name]} != {want}"
            )
    for artifact, stats in reference["describe"].items():
        tol = DESCRIBE_TOL[artifact]
        for param, (ref_mean, ref_sd) in stats.items():
            mean, sd = got["describe"][artifact][param]
            slack = tol["sd_share"] * ref_sd
            for what, a, b in (("mean", mean, ref_mean), ("sd", sd, ref_sd)):
                if abs(a - b) > slack + tol["rel"] * max(1.0, abs(b)):
                    out.setdefault(stage_of[artifact], []).append(
                        f"reference: {artifact} {param} {what} {a!r} vs {b!r}"
                    )
    return out
