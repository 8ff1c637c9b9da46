"""Problem-instance data model: schema, loading, validation, serialization.

A scenario bundles everything one game instance needs: the family tag, agent
count and horizon, dynamics coefficients, cost weights, the noise spec, the
initial-state law, and Monte Carlo settings.  The loader broadcasts scalar
entries to fully materialized per-step tables once, as owned, C-contiguous,
read-only float64 arrays; after that a Scenario is immutable and safe to
share across threads.  Python lists exist only at the YAML boundary.

Configuration documents are YAML (see the schema reference in README.md),
parsed by libyaml through PyYAML's ``CSafeLoader`` when PyYAML was built with
it and by the pure-Python ``SafeLoader`` otherwise; both build the same
documents, and only the wording of a syntax error differs.
Key shapes:

* ``a_bar`` is a scalar or a list with one entry per step (``horizon`` many).
* Per-agent fields (``b_bar``, ``r_bar``, ...) are a scalar (all agents) or a
  list with one entry per agent, each entry again scalar or per-step list.
* Running-plus-terminal weights (``q_bar``, ``q_dev``) materialize to
  ``horizon + 1`` entries; a per-step list must supply the terminal entry,
  a scalar covers it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from .errors import ConfigSyntaxError, ResourceLimitError, SchemaError, ScenarioValidationError
from .numerics import noise_even_moment


class Family(str, enum.Enum):
    """Game family selector.

    DETERMINISTIC: mean dynamics only, 2p-power state and control costs.
    ADDITIVE: additive zero-mean noise, variance-aware 2p costs, with a
        constant cost-to-go accumulator fed by the noise variance.
    MULTIPLICATIVE: noise scales the state deviation; variance-aware 2p costs.
    GENERAL_MOMENT: noise scales the whole deviation channel (state and
        control deviations with their own coefficients); 2o-moment deviation
        costs alongside 2p mean costs.

    The stochastic families differ only in where the step-(k+1) noise moment
    E[eps^mo] enters the one-step push of the deviation moment d = x - xbar,

        E[d_{k+1}^mo] = (clf_k^mo + lift_k) * E[d_k^mo] * scale_k + shift_k,

    with clf_k the deviation channel's closed-loop factor.  ``noise_slot``
    names that place: additive noise is a shift, multiplicative noise a
    lift, and the general-moment family a scale, which puts the order-2o
    moment on both the best response and the closed-loop term; the one-step
    value identity in mftg.verify and the brute-force oracle in
    tests/oracles.py confirm each placement.  The other two slots hold
    their PUSH_SLOTS neutral value.  The mean channel is the same push of
    its moment xbar^2p with all three slots neutral; ``Scenario.push_rows``
    holds every channel's rows.
    """

    DETERMINISTIC = "deterministic_2p"
    ADDITIVE = "additive_variance_2p"
    MULTIPLICATIVE = "multiplicative_variance_2p"
    GENERAL_MOMENT = "general_moment_2o2p"

    @property
    def stochastic(self) -> bool:
        return self is not Family.DETERMINISTIC

    @property
    def uses_dev_dynamics(self) -> bool:
        return self is Family.GENERAL_MOMENT

    @property
    def noise_slot(self) -> str | None:
        """The push slot that carries the noise moment; None without noise."""
        return _NOISE_SLOT.get(self)


_NOISE_SLOT = {Family.ADDITIVE: "shift", Family.MULTIPLICATIVE: "lift",
               Family.GENERAL_MOMENT: "scale"}
# The deviation-moment push slots, in the order of the push formula (see
# Family), each with the neutral value a slot without noise holds.
PUSH_SLOTS = {"lift": 0.0, "scale": 1.0, "shift": 0.0}

NOISE_KINDS = ("gaussian", "rademacher", "uniform", "explicit_moments")
INITIAL_KINDS = ("deterministic", "gaussian_around_mean", "empirical_samples")
# Monte Carlo stream layout (see simulate._draw_paths): one substream per
# fixed block of paths, keyed by (seed, block).  A new layout gets a new name,
# so a scenario written for another layout is rejected instead of silently
# giving different numbers.
STREAM_SCHEME = "block substream"
# Ceiling on the entries of one per-(agent, step) table, checked before any
# table is built: 400 MB of floats.  simulate.MAX_PATH_FLOATS is the ceiling
# on Monte Carlo memory.
MAX_TABLE_FLOATS = 50_000_000
# Safe YAML loader: libyaml when available, several times faster on large
# scenarios than the pure-Python fallback.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _same(x, y) -> bool:
    """Field equality that arrays and dicts of arrays can take part in:
    arrays are equal when their shapes and elements are (NaN never equals,
    0.0 equals -0.0, as for floats)."""
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_same(x[key], y[key]) for key in x)
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return type(x) is type(y) and np.array_equal(x, y)
    return x == y


class _FieldEquality:
    """Field-for-field ``==`` for a frozen dataclass holding arrays.  Such an
    instance is unhashable."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class NoiseSpec(_FieldEquality):
    """Zero-mean disturbance schedule.

    sigma[j] (shape (N,)) is the standard deviation of the disturbance
    entering the transition from step j to j+1 (the step-(j+1) noise
    variable; no disturbance acts at step 0).  For kind ``explicit_moments``,
    ``moments`` maps an even order to its (N,) row with the same indexing.
    """

    kind: str
    sigma: np.ndarray
    moments: dict[int, np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class InitialLaw(_FieldEquality):
    """Law of the initial state.

    ``mean`` is the model mean the controllers and recursions consume.  A
    deterministic law places every path at ``atom`` (default: the mean); an
    atom away from the mean reproduces degenerate setups where the modelled
    mean and the realized start differ.  ``sample_offset`` records how far
    empirical samples were recentred so their average equals ``mean``.
    """

    mean: float
    kind: str = "deterministic"
    variance: float = 0.0
    atom: float | None = None
    samples: np.ndarray | None = None
    sample_offset: float = 0.0

    def start_value(self) -> float:
        return self.mean if self.atom is None else self.atom


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int = 0
    seed: int = 0
    stream_scheme: str = STREAM_SCHEME


@dataclass(frozen=True, eq=False)
class Scenario(_FieldEquality):
    """One game instance.  Every coefficient table is a read-only float64
    array: a_bar and a_dev have shape (N,), b_bar, r_bar, b_dev and r_dev
    (I, N), and the running-plus-terminal weights q_bar and q_dev (I, N+1)."""

    family: Family
    agents: int
    horizon: int
    p: int
    o: int | None
    a_bar: np.ndarray
    b_bar: np.ndarray
    q_bar: np.ndarray
    r_bar: np.ndarray
    a_dev: np.ndarray | None = None
    b_dev: np.ndarray | None = None
    q_dev: np.ndarray | None = None
    r_dev: np.ndarray | None = None
    noise: NoiseSpec | None = None
    x0: InitialLaw = field(default_factory=lambda: InitialLaw(mean=0.0))
    mc: MonteCarloConfig = field(default_factory=MonteCarloConfig)

    @property
    def moment_order(self) -> int:
        """Even order of the deviation-cost moment (2 unless general family)."""
        return 2 * self.o if self.family is Family.GENERAL_MOMENT else 2

    @property
    def deviation_dynamics(self) -> tuple[np.ndarray, np.ndarray]:
        """The (a, b) tables that drive the deviation channel: a_dev and
        b_dev for the general-moment family, a_bar and b_bar otherwise."""
        if self.family.uses_dev_dynamics:
            return self.a_dev, self.b_dev
        return self.a_bar, self.b_bar

    @functools.cached_property
    def channels(self) -> tuple[tuple, ...]:
        """(order, a, b, q, r) of the mean channel and, for the stochastic
        families, of the deviation channel: a is (N,), b and r (I, N), and
        q (I, N+1)."""
        mean = (2 * self.p, self.a_bar, self.b_bar, self.q_bar, self.r_bar)
        if not self.family.stochastic:
            return (mean,)
        return mean, (self.moment_order, *self.deviation_dynamics, self.q_dev, self.r_dev)

    @functools.cached_property
    def noise_moments(self) -> np.ndarray | None:
        """The read-only (N,) row of E[eps_{k+1}^mo], k = 0..N-1, built once
        per scenario; None for the deterministic family."""
        if not self.family.stochastic:
            return None
        return _freeze(np.array([noise_even_moment(self.noise, k + 1, self.moment_order)
                                 for k in range(self.horizon)]))

    @functools.cached_property
    def push_rows(self) -> np.ndarray:
        """The read-only (channels, 3, N) push rows (lift, scale, shift) of
        each channel in ``channels``, built once per scenario: the
        deviation channel's noise slot holds ``noise_moments``, and every
        other row holds its PUSH_SLOTS neutral value, the mean channel's
        all three."""
        rows = np.empty((len(self.channels), len(PUSH_SLOTS), self.horizon))
        rows[:] = np.array(list(PUSH_SLOTS.values()))[:, None]
        if self.family.stochastic:
            rows[1, list(PUSH_SLOTS).index(self.family.noise_slot)] = self.noise_moments
        return _freeze(rows)


@dataclass(frozen=True)
class Diagnostic:
    """One violated validation condition."""

    code: str
    message: str


# ---------------------------------------------------------------------------
# loading


def _require_map(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be a mapping, got {type(doc).__name__}")
    return doc


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer, got {value!r}")
    return value


def _freeze(arr: np.ndarray | None) -> np.ndarray | None:
    if arr is not None:
        arr.setflags(write=False)
    return arr


def _steps(value, n: int, where: str) -> np.ndarray:
    """Broadcast a scalar to n steps, or check a per-step list: an (n,) array."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise SchemaError(f"{where} must have exactly {n} entries, got {len(value)}")
        return _freeze(np.array([_as_number(v, f"{where}[{i}]") for i, v in enumerate(value)]))
    return _freeze(np.full(n, _as_number(value, where)))


def _with_terminal(value, n: int, where: str) -> np.ndarray:
    """A weight row with a terminal entry: an (n+1,) array.

    Scalars cover the terminal index too; explicit lists may give either n+1
    entries or n entries (terminal then defaults to the last running value).
    """
    if isinstance(value, (list, tuple)) and len(value) == n:
        run = _steps(value, n, where)
        return _freeze(np.append(run, run[-1]))
    if isinstance(value, (list, tuple)) and len(value) != n + 1:
        raise SchemaError(f"{where} must have {n} or {n + 1} entries, got {len(value)}")
    return _steps(value, n + 1, where)


def _per_agent(value, agents: int, n: int, where: str, row=_steps) -> np.ndarray:
    """Broadcast agent-indexed fields: scalar, or list of one entry per agent,
    each entry a ``row`` of n steps.  An (agents, row length) array."""
    if isinstance(value, (list, tuple)):
        if len(value) != agents:
            raise SchemaError(
                f"{where} must list one entry per agent ({agents}), got {len(value)}"
            )
        return _freeze(np.array([row(v, n, f"{where}[{i}]") for i, v in enumerate(value)]))
    return _freeze(np.repeat(row(value, n, where)[None, :], agents, axis=0))


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise SchemaError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _build_noise(doc, n: int) -> NoiseSpec:
    doc = _require_map(doc, "noise")
    _reject_unknown(doc, {"kind", "sigma", "moments"}, "noise")
    kind = doc.get("kind")
    if kind not in NOISE_KINDS:
        raise SchemaError(f"noise.kind must be one of {NOISE_KINDS}, got {kind!r}")
    moments = None
    if kind == "explicit_moments":
        raw = _require_map(doc.get("moments", {}), "noise.moments")
        if not raw:
            raise SchemaError("explicit_moments noise requires a moments table")
        moments = {}
        for key, values in raw.items():
            order = _as_int(key, "noise.moments key")
            if order < 2 or order % 2 != 0:
                raise SchemaError(f"noise.moments keys must be even orders >= 2, got {order}")
            moments[order] = _steps(values, n, f"noise.moments[{order}]")
        if "sigma" in doc:
            sigma = _steps(doc["sigma"], n, "noise.sigma")
        elif 2 in moments:
            sigma = _freeze(np.sqrt(np.maximum(moments[2], 0.0)))
        else:
            raise SchemaError(
                "explicit_moments noise needs either sigma or an order-2 row"
            )
    else:
        if "moments" in doc:
            raise SchemaError("moments table is only valid for explicit_moments noise")
        if "sigma" not in doc:
            raise SchemaError(f"{kind} noise requires sigma")
        sigma = _steps(doc["sigma"], n, "noise.sigma")
    return NoiseSpec(kind=kind, sigma=sigma, moments=moments)


def _average(samples: np.ndarray) -> float:
    """Mean of the samples from their correctly rounded sum."""
    try:
        return math.fsum(samples) / len(samples)
    except OverflowError:  # the sum leaves the float range, the mean does not
        return math.fsum(samples / len(samples))
    except ValueError:  # both infinities among the samples; validation reports them
        return math.nan


def _build_initial(doc) -> InitialLaw:
    doc = _require_map(doc, "initial")
    _reject_unknown(doc, {"mean", "kind", "variance", "atom", "samples", "sample_offset"}, "initial")
    kind = doc.get("kind", "deterministic")
    if kind not in INITIAL_KINDS:
        raise SchemaError(f"initial.kind must be one of {INITIAL_KINDS}, got {kind!r}")

    if kind == "empirical_samples":
        raw = doc.get("samples")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise SchemaError("empirical_samples initial law requires a non-empty samples list")
        samples = _steps(raw, len(raw), "initial.samples")
        if "variance" in doc or "atom" in doc:
            raise SchemaError("variance/atom are not valid for empirical_samples")
        if "sample_offset" in doc:
            # Already-centred samples round-tripping through serialization.
            if "mean" not in doc:
                raise SchemaError("initial.mean is required alongside sample_offset")
            mean = _as_number(doc["mean"], "initial.mean")
            offset = _as_number(doc["sample_offset"], "initial.sample_offset")
            return InitialLaw(mean=mean, kind=kind, samples=samples, sample_offset=offset)
        average = _average(samples)
        mean = _as_number(doc["mean"], "initial.mean") if "mean" in doc else average
        offset = mean - average
        with np.errstate(invalid="ignore"):  # validation reports non-finite samples
            recentred = _freeze(samples + offset)
        return InitialLaw(mean=mean, kind=kind, samples=recentred, sample_offset=offset)

    if "mean" not in doc:
        raise SchemaError("initial.mean is required")
    mean = _as_number(doc["mean"], "initial.mean")
    if "samples" in doc:
        raise SchemaError(f"samples are only valid for empirical_samples, not {kind}")
    if kind == "deterministic":
        if "variance" in doc and _as_number(doc["variance"], "initial.variance") != 0.0:
            raise SchemaError("deterministic initial law must have variance 0")
        atom = _as_number(doc["atom"], "initial.atom") if "atom" in doc else None
        return InitialLaw(mean=mean, kind=kind, atom=atom)
    # gaussian_around_mean
    if "atom" in doc:
        raise SchemaError("atom is only valid for the deterministic initial law")
    variance = _as_number(doc.get("variance", 0.0), "initial.variance")
    return InitialLaw(mean=mean, kind=kind, variance=variance)


def _build_mc(doc) -> MonteCarloConfig:
    doc = _require_map(doc, "monte_carlo")
    _reject_unknown(doc, {"paths", "seed", "stream_scheme"}, "monte_carlo")
    scheme = doc.get("stream_scheme", STREAM_SCHEME)
    if scheme != STREAM_SCHEME:
        raise SchemaError(
            f"monte_carlo.stream_scheme must be {STREAM_SCHEME!r}, got {scheme!r}"
        )
    return MonteCarloConfig(
        paths=_as_int(doc.get("paths", 0), "monte_carlo.paths"),
        seed=_as_int(doc.get("seed", 0), "monte_carlo.seed"),
        stream_scheme=scheme,
    )


def build_scenario(doc: dict) -> Scenario:
    """Materialize a parsed configuration mapping into a validated Scenario."""
    doc = _require_map(doc, "scenario document")
    _reject_unknown(
        doc,
        {"family", "agents", "horizon", "p", "o", "dynamics", "weights",
         "noise", "initial", "monte_carlo"},
        "scenario document",
    )
    try:
        family = Family(doc.get("family"))
    except ValueError:
        raise SchemaError(
            f"family must be one of {[f.value for f in Family]}, got {doc.get('family')!r}"
        ) from None
    for key in ("agents", "horizon", "p", "dynamics", "weights", "initial"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    agents = _as_int(doc["agents"], "agents")
    horizon = _as_int(doc["horizon"], "horizon")
    p = _as_int(doc["p"], "p")

    o = None
    if family is Family.GENERAL_MOMENT:
        if "o" not in doc:
            raise SchemaError("general_moment_2o2p requires the moment half-order o")
        o = _as_int(doc["o"], "o")
    elif "o" in doc:
        raise SchemaError(f"o is only valid for general_moment_2o2p, not {family.value}")

    dyn = _require_map(doc["dynamics"], "dynamics")
    wts = _require_map(doc["weights"], "weights")
    dyn_keys = {"a_bar", "b_bar"}
    wt_keys = {"q_bar", "r_bar"}
    if family.uses_dev_dynamics:
        dyn_keys |= {"a_dev", "b_dev"}
    if family.stochastic:
        wt_keys |= {"q_dev", "r_dev"}
    _reject_unknown(dyn, dyn_keys, "dynamics")
    _reject_unknown(wts, wt_keys, "weights")
    for key in dyn_keys:
        if key not in dyn:
            raise SchemaError(f"dynamics.{key} is required for family {family.value}")
    for key in wt_keys:
        if key not in wts:
            raise SchemaError(f"weights.{key} is required for family {family.value}")

    if agents < 1 or horizon < 1:
        raise ScenarioValidationError(_sizes(agents, horizon, p))
    if agents * (horizon + 1) > MAX_TABLE_FLOATS:
        raise ResourceLimitError(
            f"{agents} agents over {horizon} steps need tables of {agents * (horizon + 1)} "
            f"entries, above the ceiling of {MAX_TABLE_FLOATS}"
        )
    a_bar = _steps(dyn["a_bar"], horizon, "dynamics.a_bar")
    b_bar = _per_agent(dyn["b_bar"], agents, horizon, "dynamics.b_bar")
    a_dev = b_dev = None
    if family.uses_dev_dynamics:
        a_dev = _steps(dyn["a_dev"], horizon, "dynamics.a_dev")
        b_dev = _per_agent(dyn["b_dev"], agents, horizon, "dynamics.b_dev")

    q_bar = _per_agent(wts["q_bar"], agents, horizon, "weights.q_bar", _with_terminal)
    r_bar = _per_agent(wts["r_bar"], agents, horizon, "weights.r_bar")
    q_dev = r_dev = None
    if family.stochastic:
        q_dev = _per_agent(wts["q_dev"], agents, horizon, "weights.q_dev", _with_terminal)
        r_dev = _per_agent(wts["r_dev"], agents, horizon, "weights.r_dev")

    noise = None
    if family.stochastic:
        if "noise" not in doc:
            raise SchemaError(f"family {family.value} requires a noise block")
        noise = _build_noise(doc["noise"], horizon)
    elif "noise" in doc:
        raise SchemaError("deterministic_2p forbids a noise block")

    scenario = Scenario(
        family=family,
        agents=agents,
        horizon=horizon,
        p=p,
        o=o,
        a_bar=a_bar,
        b_bar=b_bar,
        q_bar=q_bar,
        r_bar=r_bar,
        a_dev=a_dev,
        b_dev=b_dev,
        q_dev=q_dev,
        r_dev=r_dev,
        noise=noise,
        x0=_build_initial(doc["initial"]),
        mc=_build_mc(doc.get("monte_carlo", {})),
    )
    diagnostics = validate(scenario)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)
    return scenario


def load_scenario(text: str) -> Scenario:
    """Parse a YAML configuration document into a validated Scenario."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigSyntaxError(f"invalid scenario document{where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ConfigSyntaxError(f"invalid scenario document: {exc}") from exc
    if doc is None:
        raise SchemaError("scenario document is empty")
    return build_scenario(doc)


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return load_scenario(handle.read())


# ---------------------------------------------------------------------------
# validation


def _positive(table: np.ndarray, name: str, out: list[Diagnostic]) -> None:
    for i, row in enumerate(table):
        if not (row > 0.0).all():
            out.append(Diagnostic(
                code="weight-positivity",
                message=(
                    f"weight positivity violated: {name} for agent {i + 1} has a "
                    "non-positive entry (coefficients stay positive only when "
                    "every cost weight is strictly positive)"
                ),
            ))
        elif (row == math.inf).any():
            out.append(Diagnostic(
                code="coefficient-bounded",
                message=f"boundedness violated: {name} for agent {i + 1} has an "
                        "infinite entry (cost weights must be finite)",
            ))


def _finite(values: np.ndarray, name: str, out: list[Diagnostic]) -> None:
    if not np.isfinite(values).all():
        out.append(Diagnostic(
            code="coefficient-bounded",
            message=f"boundedness violated: {name} contains a non-finite entry",
        ))


def _sizes(agents: int, n: int, p: int) -> list[Diagnostic]:
    out = []
    if agents < 1:
        out.append(Diagnostic("shape", f"agent count must be >= 1, got {agents}"))
    if n < 1:
        out.append(Diagnostic("shape", f"horizon must be >= 1, got {n}"))
    if p < 1:
        out.append(Diagnostic("shape", f"mean-cost half-order p must be >= 1, got {p}"))
    return out


def validate(sc: Scenario) -> list[Diagnostic]:
    """Check every positivity/boundedness/shape condition of a Scenario.

    Returns an empty list when the instance is solvable under the positivity
    remarks; otherwise one diagnostic per violated condition.  Never mutates
    the scenario.
    """
    n, agents = sc.horizon, sc.agents
    out = _sizes(agents, n, sc.p)
    if agents < 1 or n < 1:
        return out

    # (name, table, expected shape, check of its values)
    tables = [("a_bar", sc.a_bar, (n,), _finite), ("b_bar", sc.b_bar, (agents, n), _finite),
              ("q_bar", sc.q_bar, (agents, n + 1), _positive),
              ("r_bar", sc.r_bar, (agents, n), _positive)]

    if sc.family.stochastic:
        if sc.noise is None:
            out.append(Diagnostic("noise-spec", f"family {sc.family.value} requires a noise spec"))
        if sc.q_dev is None or sc.r_dev is None:
            out.append(Diagnostic("noise-spec", "stochastic families require q_dev and r_dev"))
        else:
            tables += [("q_dev", sc.q_dev, (agents, n + 1), _positive),
                       ("r_dev", sc.r_dev, (agents, n), _positive)]
    else:
        if sc.noise is not None:
            out.append(Diagnostic("noise-spec", "deterministic_2p forbids a noise spec"))

    if sc.family.uses_dev_dynamics:
        if sc.o is None or sc.o < 1:
            out.append(Diagnostic("shape", "general_moment_2o2p requires moment half-order o >= 1"))
        if sc.a_dev is None or sc.b_dev is None:
            out.append(Diagnostic(
                "noise-spec", "general_moment_2o2p requires deviation dynamics a_dev and b_dev"
            ))
        else:
            tables += [("a_dev", sc.a_dev, (n,), _finite),
                       ("b_dev", sc.b_dev, (agents, n), _finite)]
    elif sc.o is not None:
        out.append(Diagnostic(
            "shape", f"o is only valid for general_moment_2o2p, not {sc.family.value}"
        ))

    if sc.noise is not None:
        if (sc.noise.sigma < 0.0).any():
            out.append(Diagnostic("noise-spec", "noise.sigma entries must be >= 0"))
        tables.append(("noise.sigma", sc.noise.sigma, (n,), _finite))
        if sc.noise.kind == "explicit_moments":
            table = sc.noise.moments or {}
            for order, row in table.items():
                if (row < 0.0).any():
                    out.append(Diagnostic(
                        "missing-moment", f"noise.moments[{order}] entries must be >= 0"
                    ))
                tables.append((f"noise.moments[{order}]", row, (n,), _finite))
            required = sc.moment_order
            if required not in table:
                out.append(Diagnostic(
                    "missing-moment",
                    f"missing moment order: explicit table lacks order {required}",
                ))

    for name, values, shape, check in tables:
        if values.shape != shape:
            out.append(Diagnostic(
                "length-mismatch",
                f"length mismatch: {name} has shape {values.shape}, expected {shape}",
            ))
        else:
            check(values, name, out)

    law = sc.x0
    if law.kind not in INITIAL_KINDS:
        out.append(Diagnostic("initial-law", f"unknown initial-law kind {law.kind!r}"))
    for name in ("mean", "variance", "atom", "samples", "sample_offset"):
        value = getattr(law, name)
        if value is not None and not np.isfinite(value).all():
            out.append(Diagnostic("initial-law", f"initial.{name} must be finite"))
    if law.kind == "deterministic" and law.variance != 0.0:
        out.append(Diagnostic("initial-law", "deterministic initial law must have variance 0"))
    if law.kind == "gaussian_around_mean" and law.variance < 0.0:
        out.append(Diagnostic("initial-law", "initial variance must be >= 0"))
    if law.kind == "empirical_samples":
        if law.samples is None or law.samples.size == 0:
            out.append(Diagnostic("initial-law", "empirical_samples initial law has no samples"))
        elif abs(_average(law.samples) - law.mean) > 1e-12 * max(1.0, abs(law.mean)):
            out.append(Diagnostic(
                "initial-law",
                "empirical samples do not average to the declared mean after recentring",
            ))

    if sc.mc.paths < 0:
        out.append(Diagnostic("monte-carlo", "monte_carlo.paths must be >= 0"))
    if not (0 <= sc.mc.seed < 2 ** 64):
        out.append(Diagnostic("monte-carlo", "monte_carlo.seed must fit in 64 unsigned bits"))
    return out


# ---------------------------------------------------------------------------
# serialization


def _document(sc: Scenario) -> dict:
    """The canonical document of a materialized scenario, with its tables
    as the scenario's arrays: the one description of the layout, which
    ``scenario_to_doc`` and ``serialize_scenario`` share."""
    doc: dict = {
        "family": sc.family.value,
        "agents": sc.agents,
        "horizon": sc.horizon,
        "p": sc.p,
        "dynamics": {"a_bar": sc.a_bar, "b_bar": sc.b_bar},
        "weights": {"q_bar": sc.q_bar, "r_bar": sc.r_bar},
        "monte_carlo": {
            "paths": sc.mc.paths,
            "seed": sc.mc.seed,
            "stream_scheme": sc.mc.stream_scheme,
        },
    }
    if sc.o is not None:
        doc["o"] = sc.o
    if sc.family.uses_dev_dynamics:
        doc["dynamics"]["a_dev"] = sc.a_dev
        doc["dynamics"]["b_dev"] = sc.b_dev
    if sc.family.stochastic:
        doc["weights"]["q_dev"] = sc.q_dev
        doc["weights"]["r_dev"] = sc.r_dev
        noise = {"kind": sc.noise.kind, "sigma": sc.noise.sigma}
        if sc.noise.moments is not None:
            noise["moments"] = sc.noise.moments
        doc["noise"] = noise

    law = sc.x0
    initial: dict = {"mean": float(law.mean), "kind": law.kind}
    if law.kind == "deterministic" and law.atom is not None:
        initial["atom"] = float(law.atom)
    if law.kind == "gaussian_around_mean":
        initial["variance"] = float(law.variance)
    if law.kind == "empirical_samples":
        initial["samples"] = law.samples
        initial["sample_offset"] = float(law.sample_offset)
    doc["initial"] = initial
    return doc


def _plain(node):
    """A document with every table turned into (nested) Python lists."""
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    return node.tolist() if isinstance(node, np.ndarray) else node


def scenario_to_doc(sc: Scenario) -> dict:
    """Plain-dict form of a materialized scenario (loss-free)."""
    return _plain(_document(sc))


def _yaml_scalar(value) -> str:
    """A scalar as PyYAML's safe representer writes it.

    Floats follow its rule: ``repr`` (lower-case already), with ``.0``
    inserted before an exponent that has no decimal point, and ``.inf``,
    ``-.inf`` and ``.nan``.  Every string in a scenario document is a schema
    identifier (family, kind, stream scheme), which YAML writes plain.  An
    empty table is written ``[]``.
    """
    if isinstance(value, float):
        text = repr(value)
        if text[-1] in "fn":  # "inf", "-inf" or "nan"
            return ".nan" if value != value else ".inf" if value > 0 else "-.inf"
        if "e" in text and "." not in text:
            text = text.replace("e", ".0e", 1)
        return text
    if isinstance(value, (np.ndarray, dict)):
        return "[]" if isinstance(value, np.ndarray) else "{}"
    return str(value)


# Table entries formatted at a time: the text held while a table is
# serialized stays this size, however large the table.
_TABLE_CHUNK = 1024


def _table_text(part: np.ndarray, lo: int, width: int, sep: str, new_row: str) -> str:
    """The YAML text of `part`, the entries from `lo` of a flattened table
    with rows of `width`: each entry after the newline and dash of its
    line, or of its row when it starts one.

    A run of equal bit patterns within a row (a scalar the loader
    broadcast, say) is formatted once and its line repeated; bit patterns
    keep 0.0 and -0.0 apart, which YAML writes differently.
    """
    bits = part.view(np.int64)
    starts = np.empty(part.size, dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    starts[-lo % width::width] = True  # runs never cross a row boundary
    at = np.flatnonzero(starts)
    texts = list(map(_yaml_scalar, part[at].tolist()))
    counts = np.diff(at, append=part.size)
    for j in np.flatnonzero(counts > 1).tolist():
        texts[j] += (sep + texts[j]) * int(counts[j] - 1)
    bounds = [0, *np.flatnonzero((at + lo) % width == 0).tolist(), len(texts)]
    rows = [sep.join(texts[a:b]) for a, b in zip(bounds, bounds[1:])]
    # An empty first row: the part starts a row rather than continuing one.
    return (sep if rows[0] else "") + new_row.join(rows)


def _table_lines(table: np.ndarray, indent: str):
    """Yield the block-style YAML lines of a non-empty 1-D or 2-D float
    table, _TABLE_CHUNK entries at a time, each line after its newline
    rather than before; a 2-D table is a sequence of rows, each a nested
    sequence."""
    width = table.shape[-1]
    if table.ndim == 1:
        head = item = f"{indent}- "
    else:
        head, item = f"{indent}- - ", f"{indent}  - "
    if width == 0:  # rows of an empty horizon
        yield f"\n{indent}- []" * len(table)
    flat = table.reshape(-1)
    for lo in range(0, flat.size, _TABLE_CHUNK):
        yield _table_text(flat[lo:lo + _TABLE_CHUNK], lo, width, "\n" + item, "\n" + head)
    yield "\n"


def _yaml_lines(doc: dict, indent: str):
    """Yield the block-style YAML lines of a document mapping, keys sorted."""
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict) and value:
            yield f"{indent}{key}:\n"
            yield from _yaml_lines(value, indent + "  ")
        elif isinstance(value, np.ndarray) and len(value):
            # A sequence under a key is not indented; its lines bring their
            # newlines.
            yield f"{indent}{key}:"
            yield from _table_lines(value, indent)
        else:
            yield f"{indent}{key}: {_yaml_scalar(value)}\n"


def serialize_scenario(sc: Scenario, write=None) -> str | None:
    """Loss-free canonical YAML for a materialized scenario.

    The text of ``scenario_to_doc(sc)`` in block style with sorted keys,
    byte-identical to what PyYAML's ``safe_dump`` writes for that document
    (the tests keep PyYAML as the reference), but written directly from the
    scenario's arrays: one formatted line per run of equal bit patterns in
    a row, repeated by string multiplication.  Without `write` the text is
    returned; with it, the text is passed to ``write`` a piece at a time as
    it is generated and never held whole, and None is returned.
    """
    pieces = _yaml_lines(_document(sc), "")
    if write is None:
        return "".join(pieces)
    for piece in pieces:
        write(piece)
    return None


def with_params(sc: Scenario, **updates) -> Scenario:
    """Return a validated copy of a scenario with selected fields replaced."""
    new = replace(sc, **updates)
    diagnostics = validate(new)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)
    return new
