"""Per-pattern multivariate distribution models of the six event parameters.

The combined incident dataset is partitioned into sub-datasets by the
lead-vehicle speed-change pattern (sign of a1 - a2) and a handful of
sub-conditions.  For each sub-dataset a generative model is assembled:
point-mass parameters get hurdle models, parameters entangled with them are
decorrelated by weighted regression, the remaining correlated parameters
share a Gaussian copula over quantile-normalized marginals, and everything
else is fit independently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy import special

from .config import PipelineConfig
from .errors import AllFitsFailed, InputError, ModelBuildFailed, TooFewSamples, ZeroVariance
from .events import PARAM_NAMES, ParamTable
from .jsonio import _checked, _field, _mapping, _objects
from .marginals import (
    HURDLE_FAMILIES,
    _MIN_EFFECTIVE,
    FitRequest,
    FittedDist,
    fit_family,
    fit_many,
    fit_univariate,  # not called here since fits are batched; perfbench's tracer wraps this name
    quantile_normalize,
)
from .wstats import effective_sample_size

log = logging.getLogger(__name__)

_MAX_SPLIT_DEPTH = 6


@dataclass(frozen=True)
class SubdatasetLabel:
    id: str
    pattern: str  # the speed-change pattern, as model.json names it
    description: str = ""


LABELS = {
    "S1": SubdatasetLabel("S1", "ConstantAccel", "standstill"),
    "S2": SubdatasetLabel("S2", "ConstantAccel", "constant acceleration"),
    "S3": SubdatasetLabel("S3", "ConstantAccel", "constant non-zero acceleration then steady speed"),
    "S4": SubdatasetLabel("S4", "IncreasingAccel", "increasing acceleration, decelerating near time zero"),
    "S5": SubdatasetLabel("S5", "IncreasingAccel", "increasing acceleration, accelerating near time zero"),
    "S6": SubdatasetLabel("S6", "DecreasingAccel", "decreasing acceleration, no steady phase"),
    "S7": SubdatasetLabel("S7", "DecreasingAccel", "decreasing acceleration with steady phase"),
}


def classify(table: ParamTable) -> np.ndarray:
    """The sub-dataset id ("S1".."S7") of every row.

    The pattern is constant for a1 = a2, increasing for a1 > a2 and
    decreasing otherwise.  Boundary cases: constant-pattern rows with a1 = 0
    but nonzero speed go to S2; increasing-pattern rows with a1 exactly 0
    close into S5.
    """
    v_c, a1, a2, tau_s = (table[name] for name in ("v_c", "a1", "a2", "tau_s"))
    constant = a1 == a2
    increasing = a1 > a2
    closed = int((increasing & (a1 == 0.0)).sum())
    if closed:
        log.warning("%d events: increasing pattern with a1 = 0 assigned to S5", closed)
    return np.select(
        [
            constant & (v_c == 0.0) & (a1 == 0.0),
            constant & (tau_s > 0.0) & (a1 != 0.0),
            constant,
            increasing & (a1 < 0.0),
            increasing,
            tau_s == 0.0,
        ],
        ["S1", "S3", "S2", "S4", "S5", "S6"],
        default="S7",
    )


def categorize(table: ParamTable) -> Dict[SubdatasetLabel, ParamTable]:
    """Partition a table by sub-dataset label, keeping row order within
    each; empty labels are omitted."""
    ids = classify(table)
    return {LABELS[i]: table.take(ids == i) for i in sorted(set(ids.tolist()))}


# --- point masses and correlations -------------------------------------------


@dataclass(frozen=True)
class PointMassSpec:
    parameter: str
    mass_value: float
    mass_probability: float


def detect_point_mass(
    values, weights, config: PipelineConfig = PipelineConfig(), parameter: str = ""
) -> Optional[PointMassSpec]:
    """The modal exact value, when its weighted share reaches
    ``config.mass_threshold``.

    A mass must be an exact value observed at least twice; a single heavy
    event is not a point mass, just a heavy event.
    """
    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if effective_sample_size(w) < _MIN_EFFECTIVE:
        raise TooFewSamples(f"need at least {_MIN_EFFECTIVE:g} effective samples")
    uniq, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    shares = np.bincount(inverse, weights=w) / w.sum()
    shares = np.where(counts >= 2, shares, 0.0)
    best = int(np.argmax(shares))  # ties resolve to the smaller value
    if counts[best] >= 2 and shares[best] >= config.mass_threshold:
        return PointMassSpec(
            parameter=parameter,
            mass_value=float(uniq[best]),
            mass_probability=float(shares[best]),
        )
    return None


def weighted_corr(x, y, w) -> Tuple[float, float]:
    """Weighted Pearson correlation and its effective-sample-size p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    n_eff = effective_sample_size(w)
    if n_eff < 3:
        raise TooFewSamples("need at least 3 effective samples")
    s = w.sum()
    mx = np.dot(w, x) / s
    my = np.dot(w, y) / s
    vx = np.dot(w, np.square(x - mx))
    vy = np.dot(w, np.square(y - my))
    if vx <= 0 or vy <= 0:
        raise ZeroVariance("correlation requires nonzero variance in both variables")
    r = float(np.dot(w, (x - mx) * (y - my)) / np.sqrt(vx * vy))
    r = float(np.clip(r, -1.0, 1.0))
    df = n_eff - 2.0  # >= 1
    if abs(r) >= 1.0:
        return r, 0.0
    t = abs(r) * np.sqrt(df / (1.0 - r * r))
    p = float(2.0 * special.stdtr(df, -t))  # twice the t distribution's sf at t
    return r, min(p, 1.0)


# --- decorrelation ------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """Weighted-regression detrending of a parameter against the point-mass ones."""

    parameter: str
    intercept: float
    coefficients: Dict[str, float]  # point-mass parameter name -> slope

    def predict(self, pm_values: Mapping[str, np.ndarray]) -> np.ndarray:
        total = None
        for name, coef in self.coefficients.items():
            term = coef * np.asarray(pm_values[name], dtype=float)
            total = term if total is None else total + term
        if total is None:
            total = 0.0
        return self.intercept + total

    def to_json(self) -> dict:
        return {
            "parameter": self.parameter,
            "intercept": self.intercept,
            "coefficients": dict(self.coefficients),
        }

    @staticmethod
    def from_json(doc: dict, where: str) -> "TransformSpec":
        return TransformSpec(
            parameter=_field(doc, "parameter", str, where),
            intercept=_field(doc, "intercept", float, where),
            coefficients=_mapping(doc, "coefficients", float, where),
        )


def decorrelate(
    x, pm_matrix: np.ndarray, w, pm_names: Sequence[str], parameter: str = ""
) -> Tuple[np.ndarray, TransformSpec]:
    """Subtract the weighted least-squares fit of x on the point-mass columns."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    design = np.column_stack([np.ones_like(x), pm_matrix])
    sw = np.sqrt(w)
    beta, _, rank, _ = np.linalg.lstsq(design * sw[:, None], x * sw, rcond=None)
    if rank < design.shape[1]:
        log.warning(
            "parameter %s: collinear point-mass regressors, using minimum-norm solution",
            parameter,
        )
    fitted = design @ beta
    spec = TransformSpec(
        parameter=parameter,
        intercept=float(beta[0]),
        coefficients={name: float(b) for name, b in zip(pm_names, beta[1:])},
    )
    return x - fitted, spec


def split_on_point_mass(table: ParamTable, spec: PointMassSpec) -> Tuple[ParamTable, ParamTable]:
    """Split rows by whether the parameter equals its point-mass value."""
    at_mass = table[spec.parameter] == spec.mass_value
    return table.take(at_mass), table.take(~at_mass)


# --- hurdle model -------------------------------------------------------------


@dataclass(frozen=True)
class HurdleDist:
    """Point mass with a given probability, else a continuous draw."""

    mass: PointMassSpec
    continuous: Optional[FittedDist]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        take_mass = rng.random(n) < self.mass.mass_probability
        u = rng.random(n)
        if self.continuous is None:
            return np.full(n, self.mass.mass_value)
        values = self.continuous.ppf(u)
        return np.where(take_mass, self.mass.mass_value, values)

    def to_json(self) -> dict:
        return {
            "kind": "hurdle",
            "parameter": self.mass.parameter,
            "mass_value": self.mass.mass_value,
            "mass_probability": self.mass.mass_probability,
            "continuous": None if self.continuous is None else self.continuous.to_json(),
        }

    @staticmethod
    def from_json(doc: dict, where: str) -> "HurdleDist":
        cont = doc.get("continuous")
        probability = _field(doc, "mass_probability", float, where)
        if not 0.0 <= probability <= 1.0:
            raise InputError(f"{where}.mass_probability: must be in [0, 1], got {probability!r}")
        return HurdleDist(
            mass=PointMassSpec(
                parameter=_field(doc, "parameter", str, where, default=""),
                mass_value=_field(doc, "mass_value", float, where),
                mass_probability=probability,
            ),
            continuous=None if cont is None else FittedDist.from_json(cont, f"{where}.continuous"),
        )


class _Marginal(NamedTuple):
    """A marginal a bundle needs: the lowest-AIC family for ``values``, or
    with ``mass`` set a hurdle whose ``values`` are the non-mass samples."""

    name: str
    values: np.ndarray
    weights: np.ndarray
    mass: Optional[PointMassSpec] = None

    @property
    def request(self) -> Optional[FitRequest]:
        """The fit to make; None for a hurdle with too few non-mass samples,
        which gets no AIC choice."""
        if self.mass is None:
            return FitRequest(self.values, self.weights)
        if effective_sample_size(self.weights) >= _MIN_EFFECTIVE:
            return FitRequest(self.values, self.weights, HURDLE_FAMILIES)
        return None

    def finish(self, outcomes: Iterator):
        """The fitted marginal, taking the request's outcome from ``outcomes``;
        raises the AllFitsFailed of a request with no fit."""
        if self.request is not None:
            fitted = next(outcomes)
            if isinstance(fitted, AllFitsFailed):
                raise fitted
            return fitted if self.mass is None else HurdleDist(mass=self.mass, continuous=fitted)
        log.warning("parameter %s: too few non-mass samples, falling back to exponential", self.name or "?")
        return HurdleDist(mass=self.mass, continuous=fit_family("exponential", self.values, self.weights))


# --- submodel bundles ----------------------------------------------------------


@dataclass(frozen=True)
class SplitCondition:
    """One recursive split: parameter == value ('eq') or != value ('ne')."""

    parameter: str
    op: str
    value: float

    def mask(self, table: ParamTable) -> np.ndarray:
        column = table[self.parameter]
        return column == self.value if self.op == "eq" else column != self.value

    def to_json(self) -> dict:
        return {"parameter": self.parameter, "op": self.op, "value": self.value}

    @staticmethod
    def from_json(doc: dict, where: str) -> "SplitCondition":
        op = _field(doc, "op", str, where)
        if op not in ("eq", "ne"):
            raise InputError(f"{where}.op: expected 'eq' or 'ne', got {op!r}")
        return SplitCondition(_field(doc, "parameter", str, where), op, _field(doc, "value", float, where))


@dataclass(frozen=True)
class CorrelatedBlock:
    names: Tuple[str, ...]
    marginals: Tuple[FittedDist, ...]
    sigma: np.ndarray  # unit-diagonal PSD matrix


@dataclass(frozen=True)
class SubmodelBundle:
    """Everything needed to sample one sub-dataset's parameter vectors."""

    label: SubdatasetLabel
    splits: Tuple[SplitCondition, ...]
    constants: Dict[str, float]
    copies: Dict[str, str]  # parameter -> source parameter it duplicates
    transforms: Tuple[TransformSpec, ...]
    correlated: Optional[CorrelatedBlock]
    uncorrelated: Dict[str, object]  # name -> FittedDist | HurdleDist
    train_weight_share: float
    train_weight: float

    @property
    def bundle_id(self) -> str:
        if not self.splits:
            return self.label.id
        suffix = ",".join(f"{s.parameter}{'=' if s.op == 'eq' else '!='}{s.value:g}" for s in self.splits)
        return f"{self.label.id}[{suffix}]"

    def roles(self) -> Dict[str, str]:
        out = {}
        for name in PARAM_NAMES:
            if name in self.constants:
                out[name] = "constant"
            elif name in self.copies:
                out[name] = "copy"
            elif self.correlated and name in self.correlated.names:
                out[name] = "correlated"
            elif isinstance(self.uncorrelated.get(name), HurdleDist):
                out[name] = "point-mass"
            else:
                out[name] = "uncorrelated"
        return out


def nearest_unit_correlation(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize, clip negative eigenvalues, and restore the unit diagonal."""
    s = (matrix + matrix.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(s)
    if eigvals.min() < -1e-10:
        log.info("covariance clipped to PSD (min eigenvalue %.3e)", eigvals.min())
        eigvals = np.clip(eigvals, 0.0, None)
        s = (eigvecs * eigvals) @ eigvecs.T
        d = np.sqrt(np.clip(np.diag(s), 1e-12, None))
        s = s / np.outer(d, d)
    np.fill_diagonal(s, 1.0)
    return np.clip(s, -1.0, 1.0)


def _significant(x, y, w, config: PipelineConfig) -> bool:
    """Whether x and y have a significant, non-weak weighted correlation;
    False when it cannot be computed."""
    try:
        r, p = weighted_corr(x, y, w)
    except (ZeroVariance, TooFewSamples):
        return False
    return abs(r) >= config.corr_threshold and p < config.alpha_corr


def _corr_pairs(columns: Dict[str, np.ndarray], w: np.ndarray, config: PipelineConfig):
    """Pairs (a, b) with a significant, non-weak weighted correlation."""
    names = list(columns)
    return {
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if _significant(columns[a], columns[b], w, config)
    }


def build_all(table: ParamTable, config: PipelineConfig = PipelineConfig()) -> List[SubmodelBundle]:
    """Categorize a table and build bundles for every non-empty label."""
    return _build(categorize(table), config, float(table.weight.sum()))


_BUILD_ERRORS = (AllFitsFailed, ZeroVariance, TooFewSamples, np.linalg.LinAlgError)


def _build(subs: Mapping[SubdatasetLabel, ParamTable], config, total) -> List[SubmodelBundle]:
    """Plan every sub-dataset's bundles, make all their fits in one batch,
    then assemble the bundles.

    A failure raises the ModelBuildFailed that building the sub-datasets one
    by one, in order, raises first: the plans made before a planning failure
    are assembled first, and no later sub-dataset is planned.
    """
    plans: List[_Plan] = []
    failure = None
    for label, sub in subs.items():
        try:
            for plan in _plan(sub, label, config, total, splits=(), depth=0):
                plans.append(plan)
        except _BUILD_ERRORS as exc:
            failure = (label, exc)
            break
    requests = [m.request for plan in plans for m in plan.marginals]
    outcomes = iter(fit_many([r for r in requests if r is not None]))  # one batch, in order
    bundles = []
    for plan in plans:
        try:
            bundles.append(plan.assemble(outcomes))
        except _BUILD_ERRORS as exc:
            raise ModelBuildFailed(f"sub-dataset {plan.bundle.label.id}: {exc}") from exc
    if failure is not None:
        label, exc = failure
        raise ModelBuildFailed(f"sub-dataset {label.id}: {exc}") from exc
    return bundles


@dataclass(frozen=True)
class _Plan:
    """A bundle before its marginals are fit.  ``bundle`` has no correlated
    block or uncorrelated marginals yet; ``marginals`` lists them in the
    order they are fit, the ``n_correlated`` correlated ones first."""

    bundle: SubmodelBundle
    marginals: Tuple[_Marginal, ...]
    n_correlated: int

    def assemble(self, outcomes: Iterator) -> SubmodelBundle:
        """The bundle, its fits taken in order from ``outcomes``."""
        k = self.n_correlated
        correlated = _copula(self.marginals[:k], outcomes) if k else None
        uncorrelated = {m.name: m.finish(outcomes) for m in self.marginals[k:]}
        return replace(self.bundle, correlated=correlated, uncorrelated=uncorrelated)


def _copula(marginals: Sequence[_Marginal], outcomes: Iterator) -> CorrelatedBlock:
    """The Gaussian copula over the quantile-normalized correlated marginals."""
    fitted, z_cols = [], []
    for m in marginals:
        fitted.append(m.finish(outcomes))
        z_cols.append(quantile_normalize(m.values, fitted[-1]))
    w = marginals[0].weights
    k = len(marginals)
    sigma = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            r, _ = weighted_corr(z_cols[i], z_cols[j], w)
            sigma[i, j] = sigma[j, i] = r
    return CorrelatedBlock(
        names=tuple(m.name for m in marginals),
        marginals=tuple(fitted),
        sigma=nearest_unit_correlation(sigma),
    )


def _plan(sub, label, config, total, splits, depth) -> Iterator[_Plan]:
    """The plans of a sub-dataset's bundles, in order: constants, copies,
    point masses, splits, decorrelation and the correlated names, which
    need no fit."""
    w = sub.weight
    matrix = sub.values

    constants: Dict[str, float] = {}
    copies: Dict[str, str] = {}
    free: List[str] = []
    for j, name in enumerate(PARAM_NAMES):
        col = matrix[:, j]
        if (col == col[0]).all():
            constants[name] = float(col[0])
            continue
        duplicate = None
        for prior in free:
            if (col == matrix[:, PARAM_NAMES.index(prior)]).all():
                duplicate = prior
                break
        if duplicate is not None:
            copies[name] = duplicate
        else:
            free.append(name)

    columns = {name: matrix[:, PARAM_NAMES.index(name)].copy() for name in free}

    masses: Dict[str, PointMassSpec] = {}
    for name in free:
        spec = detect_point_mass(columns[name], w, config, parameter=name)
        if spec is not None:
            masses[name] = spec

    # split when two point-mass parameters are strongly entangled
    if len(masses) >= 2 and depth < _MAX_SPLIT_DEPTH:
        pm_cols = {name: columns[name] for name in masses}
        entangled = {
            name
            for pair in _corr_pairs(pm_cols, w, config)
            for name in pair
        }
        if entangled:
            split_name = max(
                sorted(entangled, key=PARAM_NAMES.index),
                key=lambda n: masses[n].mass_probability,
            )
            spec = masses[split_name]
            side_eq, side_ne = split_on_point_mass(sub, spec)
            if _can_model(side_eq) and _can_model(side_ne):
                for side, op in ((side_eq, "eq"), (side_ne, "ne")):
                    condition = SplitCondition(split_name, op, spec.mass_value)
                    yield from _plan(side, label, config, total, splits + (condition,), depth + 1)
                return
            log.warning(
                "%s: degenerate split on %s skipped (a side is too small)",
                label.id,
                split_name,
            )

    # decorrelate non-mass parameters from the point-mass ones
    transforms: List[TransformSpec] = []
    if masses:
        pm_names = sorted(masses, key=PARAM_NAMES.index)
        pm_matrix = np.column_stack([columns[n] for n in pm_names])
        for name in free:
            if name in masses:
                continue
            if any(_significant(columns[name], columns[pm], w, config) for pm in pm_names):
                residual, spec = decorrelate(columns[name], pm_matrix, w, pm_names, parameter=name)
                columns[name] = residual
                transforms.append(spec)

    # classify the remaining continuous parameters
    plain = [name for name in free if name not in masses]
    corr_names: List[str] = []
    if len(plain) >= 2:
        strong = _corr_pairs({n: columns[n] for n in plain}, w, config)
        in_pair = {name for pair in strong for name in pair}
        corr_names = [n for n in plain if n in in_pair]

    marginals = [_Marginal(name, columns[name], w) for name in corr_names]
    for name in free:
        if name in masses:
            off = columns[name] != masses[name].mass_value
            marginals.append(_Marginal(name, columns[name][off], w[off], masses[name]))
        elif name not in corr_names:
            marginals.append(_Marginal(name, columns[name], w))
    bundle = SubmodelBundle(
        label=label,
        splits=splits,
        constants=constants,
        copies=copies,
        transforms=tuple(transforms),
        correlated=None,
        uncorrelated={},
        train_weight_share=float(w.sum() / total) if total > 0 else 0.0,
        train_weight=float(w.sum()),
    )
    yield _Plan(bundle, tuple(marginals), len(corr_names))


def _can_model(side: ParamTable) -> bool:
    return effective_sample_size(side.weight) >= _MIN_EFFECTIVE


# --- persistence ----------------------------------------------------------------

SCHEMA_ID = "lead-kinematics-model/1"


def bundles_to_json(bundles: Sequence[SubmodelBundle]) -> dict:
    docs = []
    for b in bundles:
        correlated = None
        if b.correlated is not None:
            correlated = {
                "names": list(b.correlated.names),
                "marginals": [m.to_json() for m in b.correlated.marginals],
                "sigma": [[float(v) for v in row] for row in b.correlated.sigma],
            }
        uncorrelated = {}
        for name, dist in b.uncorrelated.items():
            doc = dist.to_json()
            if isinstance(dist, FittedDist):
                doc = {"kind": "continuous", **doc}
            uncorrelated[name] = doc
        docs.append(
            {
                "label": {
                    "id": b.label.id,
                    "pattern": b.label.pattern,
                    "description": b.label.description,
                },
                "splits": [s.to_json() for s in b.splits],
                "constants": dict(b.constants),
                "copies": dict(b.copies),
                "transforms": [t.to_json() for t in b.transforms],
                "correlated": correlated,
                "uncorrelated": uncorrelated,
                "train_weight_share": b.train_weight_share,
                "train_weight": b.train_weight,
            }
        )
    return {"schema": SCHEMA_ID, "bundles": docs}


def bundles_from_json(doc) -> List[SubmodelBundle]:
    """Decode a model document; a malformed one raises ``InputError`` naming
    the part at fault."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA_ID:
        raise InputError(f"unsupported model schema {schema!r}")
    bundles = [_bundle_from_json(item, where) for item, where in _objects(doc, "bundles", "model")]
    shares = [b.train_weight_share for b in bundles]
    if not shares or min(shares) < 0 or abs(sum(shares) - 1.0) > 1e-6:
        raise InputError(f"bundle weight shares must be non-negative and sum to 1, got {shares}")
    return bundles


def _bundle_from_json(item: dict, where: str) -> SubmodelBundle:
    label_id = _field(_field(item, "label", dict, where), "id", str, f"{where}.label")
    if label_id not in LABELS:
        raise InputError(f"{where}.label.id: unknown sub-dataset {label_id!r}")
    correlated = None
    if item.get("correlated") is not None:
        block = _field(item, "correlated", dict, where)
        w = f"{where}.correlated"
        names = tuple(_checked(n, str, f"{w}.names") for n in _field(block, "names", list, w))
        marginals = tuple(FittedDist.from_json(m, f"{w}.marginals") for m in _field(block, "marginals", list, w))
        sigma = [[_checked(v, float, f"{w}.sigma") for v in _checked(row, list, f"{w}.sigma")]
                 for row in _field(block, "sigma", list, w)]
        k = len(names)
        if len(marginals) != k or len(sigma) != k or any(len(row) != k for row in sigma):
            raise InputError(f"{w}: {k} names need {k} marginals and a {k}x{k} sigma")
        # no symmetry check: the eigen-reconstruction may leave it asymmetric in the last bits
        if any(sigma[i][i] != 1.0 for i in range(k)) or any(abs(v) > 1.0 for row in sigma for v in row):
            raise InputError(f"{w}.sigma: must have a unit diagonal and entries in [-1, 1]")
        correlated = CorrelatedBlock(names, marginals, np.array(sigma, dtype=float).reshape(k, k))
    uncorrelated = {}
    for name, u in _mapping(item, "uncorrelated", dict, where).items():
        w = f"{where}.uncorrelated.{name}"
        hurdle = _field(u, "kind", str, w) == "hurdle"
        uncorrelated[name] = HurdleDist.from_json(u, w) if hurdle else FittedDist.from_json(u, w)
    bundle = SubmodelBundle(
        label=LABELS[label_id],
        splits=tuple(SplitCondition.from_json(*entry) for entry in _objects(item, "splits", where)),
        constants=_mapping(item, "constants", float, where),
        copies=_mapping(item, "copies", str, where, default={}),
        transforms=tuple(TransformSpec.from_json(*entry) for entry in _objects(item, "transforms", where)),
        correlated=correlated,
        uncorrelated=uncorrelated,
        train_weight_share=_field(item, "train_weight_share", float, where),
        train_weight=_field(item, "train_weight", float, where, default=0.0),
    )
    sampled = [*uncorrelated, *(correlated.names if correlated else ())]
    if sorted([*bundle.constants, *bundle.copies, *sampled]) != sorted(PARAM_NAMES):
        raise InputError(f"{where}: constants, copies, correlated and uncorrelated parameters "
                         f"must name each of {', '.join(PARAM_NAMES)} once")
    read = [*bundle.copies.values(), *(t.parameter for t in bundle.transforms),
            *(name for t in bundle.transforms for name in t.coefficients)]
    if not set(read) <= set(sampled) or not {c.parameter for c in bundle.splits} <= set(PARAM_NAMES):
        raise InputError(f"{where}: copies and transforms must read sampled parameters, splits known ones")
    return bundle
