"""Span tracer that instruments leadkin from outside the package.

``Tracer.install`` replaces the public functions the pipeline calls with
wrappers that record one span per call (name, start, end, parent span,
iteration id) plus counters measured where the work happens.  Functions
imported by name into another module (``leadkin.cli.build_all``,
``leadkin.mvdist.fit_univariate`` ...) are wrapped at every alias, because
the caller looks the name up in its own module.  ``uninstall`` restores the
originals, so untraced iterations run the unmodified program.

Spans stay in memory; ``summary`` turns them into self times (a span's
duration minus the part its direct children cover) and counts.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from workloads import STAGES

FAMILIES = ("normal", "skewnormal", "expnormal", "gamma", "gengamma", "exponential")
REJECT_REASONS = ("range", "physical", "categorization")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    iteration: int
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    iteration: int = 0
    _stack: List[int] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # --- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.iteration)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def innermost(self) -> str:
        return self.spans[self._stack[-1]].name if self._stack else ""

    def wrap(
        self,
        fn: Callable,
        name,
        on_result: Optional[Callable] = None,
        on_args: Optional[Callable] = None,
    ) -> Callable:
        """Wrapper recording a span per call.

        ``name`` is a string or ``name(args, kwargs) -> str``; ``on_args``
        may return replacement ``(args, kwargs)``; ``on_result(args, kwargs,
        result)`` records counters after a successful call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            with self.span(label):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- instrumentation of leadkin -----------------------------------------

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` puts the originals back."""
        import numpy
        import scipy.optimize
        from leadkin import cli, combine, ingest, marginals, mvdist, pwl, synth, tables, validate

        count = self.counters
        traced = {}  # original function -> wrapper, shared by all aliases

        def at(owners, attr, name, **hooks):
            for owner in owners:
                original = getattr(owner, attr)
                if original not in traced:
                    traced[original] = self.wrap(original, name, **hooks)
                self.patch(owner, attr, traced[original])

        # ingest
        at([ingest], "load_events", "ingest.load_events")
        at([ingest], "window_event", "ingest.window_event")

        def on_valid(args, kwargs, result):
            count["pwl.events_fitted"] += 1
            count["pwl.events_valid"] += bool(result)

        at([ingest], "validate_event", "ingest.validate_event", on_result=on_valid)

        # pwl: one span per event, lstsq calls counted inside fit_event only
        at([pwl], "fit_event", "pwl.fit_event")
        at([pwl], "extract_params", "pwl.extract_params")
        lstsq = numpy.linalg.lstsq

        @functools.wraps(lstsq)
        def counted_lstsq(*args, **kwargs):
            if self.innermost() == "pwl.fit_event":
                count["pwl.lstsq_calls"] += 1
            return lstsq(*args, **kwargs)

        self.patch(numpy.linalg, "lstsq", counted_lstsq)

        # combine
        for fn in ("split_near_crashes", "preprocess", "build_plan", "reweight_combine"):
            at([combine], fn, f"combine.{fn}")

        def on_merge(args, kwargs, result):
            near_crashes = args[1] if len(args) > 1 else kwargs["near_crashes"]
            count["combine.nc_total"] += len(near_crashes)
            count["combine.nc_attached"] += len(result[1].selected)

        at([combine], "merge_near_crashes", "combine.merge_near_crashes", on_result=on_merge)

        # mvdist
        at([cli, validate], "build_all", "mvdist.build_all")
        at([cli], "bundles_to_json", "mvdist.bundles_to_json")
        at([cli], "bundles_from_json", "mvdist.bundles_from_json")

        # marginals: MLE per family, Nelder-Mead evaluations, inverse CDF draws
        at([mvdist], "fit_univariate", "marginals.fit_univariate")
        at(
            [mvdist, marginals],
            "fit_family",
            lambda args, kwargs: f"marginals.fit_family.{args[0] if args else kwargs['family']}",
        )
        minimize = scipy.optimize.minimize

        @functools.wraps(minimize)
        def counted_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            if self.innermost().startswith("marginals.fit_family."):
                count["marginals.nm_nfev"] += int(res.nfev)
            return res

        self.patch(scipy.optimize, "minimize", counted_minimize)

        def on_ppf(args, kwargs, result):
            count[f"marginals.ppf_draws.{args[0].family}"] += int(numpy.size(result))

        at(
            [marginals.FittedDist],
            "ppf",
            lambda args, kwargs: f"marginals.ppf.{args[0].family}",
            on_result=on_ppf,
        )

        # synth
        at([cli, validate], "assemble_synthetic", "synth.assemble_synthetic")

        def on_sample(args, kwargs, result):
            count["synth.draws"] += len(result)

        at([synth], "sample_submodel", "synth.sample_submodel", on_result=on_sample)

        def on_filter(args, kwargs, result):
            accepted, rejected = result
            count["synth.accepted"] += len(accepted)
            for reason, n in rejected.items():
                count[f"synth.rejected.{reason}"] += n

        at([synth], "filter_valid", "synth.filter_valid", on_result=on_filter)
        at([cli], "params_to_profile", "synth.params_to_profile")

        # validate
        at([cli], "compare_datasets", "validate.compare_datasets")
        at([validate], "describe", "validate.describe")
        at([validate], "weighted_ecdf", "validate.weighted_ecdf")

        def on_ks(args, kwargs, result):
            count["validate.ks_perms"] += result.n_permutations

        at([validate], "weighted_ks_test", "validate.weighted_ks_test", on_result=on_ks)

        # tables: rows counted at the reader or writer that touches the file
        def rows_read(args, kwargs, result):
            count["tables.rows_read"] += len(getattr(result, "events", result))

        def rows_written(args, kwargs, result):
            rows = args[1]
            count["tables.rows_written"] += len(getattr(rows, "events", rows))

        at([tables], "read_params_csv", "tables.read_params_csv", on_result=rows_read)
        at([tables], "read_combined_csv", "tables.read_combined_csv", on_result=rows_read)
        at([tables], "read_synthetic_csv", "tables.read_synthetic_csv")  # rows counted by read_params_csv
        at([tables], "read_counts_json", "tables.read_counts_json")
        at([tables], "write_counts_json", "tables.write_counts_json")
        for fn in ("write_params_csv", "write_combined_csv", "write_synthetic_csv"):
            at([tables], fn, f"tables.{fn}", on_result=rows_written)

        def count_profile_rows(args, kwargs):
            def rows(profiles):
                for profile in profiles:
                    count["tables.rows_written"] += len(profile.times)
                    yield profile

            return (args[0], rows(args[1]), *args[2:]), kwargs

        at([tables], "write_profiles_csv", "tables.write_profiles_csv", on_args=count_profile_rows)

    # --- summary --------------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def summary(self, iterations: int) -> Dict[str, float]:
        """Per-layer metrics, averaged per traced iteration."""
        per = float(max(iterations, 1))
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            self_s[span.name] += own
            calls[span.name] += 1
        stage_s: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.parent < 0 and span.name.startswith("cli.stage_"):
                stage_s[span.name] += span.duration
        fit_ms = sorted(1e3 * s.duration for s in self.spans if s.name == "pwl.fit_event")
        c = self.counters

        def total(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        def ratio(num, den):
            return num / den if den else 0.0

        m: Dict[str, float] = {}
        for stage in STAGES:
            m[f"cli.stage_{stage}_s"] = stage_s[f"cli.stage_{stage}"] / per
        m["ingest.load_events_s"] = self_s["ingest.load_events"] / per
        m["ingest.window_event_s"] = self_s["ingest.window_event"] / per
        m["ingest.events_skipped"] = sum(
            1 for s in self.spans if s.name == "ingest.window_event" and s.error
        ) / per
        m["pwl.fit_event_s"] = self_s["pwl.fit_event"] / per
        m["pwl.fit_event_ms.p50"] = _quantile(fit_ms, 0.50)
        m["pwl.fit_event_ms.p90"] = _quantile(fit_ms, 0.90)
        m["pwl.fit_event_calls"] = calls["pwl.fit_event"] / per
        m["pwl.lstsq_calls"] = c["pwl.lstsq_calls"] / per
        m["pwl.valid_ratio"] = ratio(c["pwl.events_valid"], c["pwl.events_fitted"])
        m["combine.s"] = total("combine.") / per
        m["combine.merge_near_crashes_s"] = self_s["combine.merge_near_crashes"] / per
        m["combine.nc_attached_ratio"] = ratio(c["combine.nc_attached"], c["combine.nc_total"])
        m["mvdist.build_all_s"] = self_s["mvdist.build_all"] / per
        m["mvdist.build_all_calls"] = calls["mvdist.build_all"] / per
        m["marginals.fit_univariate_s"] = self_s["marginals.fit_univariate"] / per
        m["marginals.fit_univariate_calls"] = calls["marginals.fit_univariate"] / per
        m["marginals.nm_nfev"] = c["marginals.nm_nfev"] / per
        for fam in FAMILIES:
            fit_s = self_s[f"marginals.fit_family.{fam}"]
            fit_calls = calls[f"marginals.fit_family.{fam}"]
            ppf_s = self_s[f"marginals.ppf.{fam}"]
            draws = c[f"marginals.ppf_draws.{fam}"]
            m[f"marginals.fit_family_s.{fam}"] = fit_s / per
            m[f"marginals.fit_family_calls.{fam}"] = fit_calls / per
            m[f"marginals.fit_family_ms_per_call.{fam}"] = 1e3 * ratio(fit_s, fit_calls)
            m[f"marginals.ppf_s.{fam}"] = ppf_s / per
            m[f"marginals.ppf_draws.{fam}"] = draws / per
            m[f"marginals.ppf_s_per_10k.{fam}"] = 1e4 * ratio(ppf_s, draws)
        m["synth.assemble_synthetic_s"] = self_s["synth.assemble_synthetic"] / per
        m["synth.sample_submodel_s"] = self_s["synth.sample_submodel"] / per
        m["synth.filter_valid_s"] = self_s["synth.filter_valid"] / per
        m["synth.draws"] = c["synth.draws"] / per
        m["synth.accept_ratio"] = ratio(c["synth.accepted"], c["synth.draws"])
        for reason in REJECT_REASONS:
            m[f"synth.rejected.{reason}"] = c[f"synth.rejected.{reason}"] / per
        m["synth.params_to_profile_s"] = self_s["synth.params_to_profile"] / per
        ks_s = self_s["validate.weighted_ks_test"]
        m["validate.weighted_ks_test_s"] = ks_s / per
        m["validate.ks_perms"] = c["validate.ks_perms"] / per
        m["validate.ks_s_per_1k_perms"] = 1e3 * ratio(ks_s, c["validate.ks_perms"])
        read_s = total("tables.read_")
        write_s = total("tables.write_")
        m["tables.read_s"] = read_s / per
        m["tables.write_s"] = write_s / per
        m["tables.rows_read"] = c["tables.rows_read"] / per
        m["tables.rows_written"] = c["tables.rows_written"] / per
        m["tables.read_s_per_10k_rows"] = 1e4 * ratio(read_s, c["tables.rows_read"])
        m["tables.write_s_per_10k_rows"] = 1e4 * ratio(write_s, c["tables.rows_written"])
        m["trace.spans"] = len(self.spans) / per
        return m

    def to_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.iteration, s.error] for s in self.spans
            ],
            "span_fields": ["name", "start", "end", "parent", "iteration", "error"],
            "counters": dict(self.counters),
        }


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]
