"""Declarative scenario configuration.

A scenario file is plain ``key = value`` text (``#`` starts a comment).
Lists are comma separated; per-station generation mixes use
``wind:solar`` pairs separated by semicolons.  See README for the full
schema and one example per scenario kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCENARIO_KINDS = (
    "two_cell_sweep",      # fixed sum energy, sweep the split E1
    "two_cell_random",     # random budgets/cross-gains, sweep average energy
    "three_cell_profile",  # hexagonal cluster driven by a generation profile
    "three_cell_sweep",    # same cluster, sweep the profile scale ebar
)

DEFAULT_SCHEMES = ("joint", "comm_only", "energy_only", "none")


class ScenarioError(ValueError):
    """Invalid scenario file or field combination."""


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme variant plus the transfer efficiency it runs with.

    ``beta`` is None for variants that never transfer (comm_only, none)
    and defaults to the scenario beta otherwise.
    """

    variant: str
    beta: float | None = None

    def label(self) -> str:
        if self.beta is None:
            return self.variant
        return f"{self.variant}@{self.beta:g}"


@dataclass
class Scenario:
    kind: str
    n_bs: int
    m_ant: int
    n_mt: int
    schemes: tuple
    beta: float = 0.9
    betas: tuple = ()
    weights: tuple = ()
    noise: float = 1.0
    cross_gain: float | str = 0.5
    sum_energy: float = 30.0
    sweep_points: int = 13
    energy_db: tuple = ()
    budget_skew: float = 1.0
    ebar_dbw: float = 10.0
    profile: str = "bundled"
    mixes: tuple = ()
    slot_stride: int = 1
    n_realizations: int = 100
    seed: int = 1

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        for name, value in vars(self).items():
            if name != "schemes" and not isinstance(value, str) \
                    and not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ScenarioError(f"{name} must be finite")
        for name in ("n_bs", "m_ant", "n_mt", "n_realizations",
                     "sweep_points", "slot_stride"):
            if int(getattr(self, name)) <= 0:
                raise ScenarioError(f"{name} must be positive")
        if self.n_mt > self.m_ant * self.n_bs:
            raise ScenarioError(f"n_mt={self.n_mt} exceeds "
                                f"m_ant*n_bs={self.m_ant * self.n_bs}")
        if not self.schemes:
            raise ScenarioError("scheme list must be nonempty")
        for spec in self.schemes:
            if spec.variant not in DEFAULT_SCHEMES:
                raise ScenarioError(f"unknown scheme {spec.variant!r}")
            for b in ([spec.beta] if spec.beta is not None else []):
                if not 0.0 <= b <= 1.0:
                    raise ScenarioError(f"beta {b} outside [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ScenarioError(f"beta {self.beta} outside [0, 1]")
        for b in self.betas:
            if not 0.0 <= b <= 1.0:
                raise ScenarioError(f"beta {b} outside [0, 1]")
        if self.noise <= 0:
            raise ScenarioError("noise power must be positive")
        if self.weights and len(self.weights) != self.n_mt:
            raise ScenarioError("weights length must equal n_mt")
        if self.kind == "two_cell_sweep":
            if self.sum_energy <= 0:
                raise ScenarioError("sum_energy must be positive")
            if not self.betas:
                raise ScenarioError("two_cell_sweep needs a betas list")
        if self.kind in ("two_cell_random", "three_cell_sweep"):
            if len(self.energy_db) < 2:
                raise ScenarioError(f"{self.kind} needs >= 2 energy_db points")
            if list(self.energy_db) != sorted(self.energy_db):
                raise ScenarioError("energy_db sweep must be ascending")
        if not 0.0 < self.budget_skew < 2.0:
            raise ScenarioError("budget_skew must lie in (0, 2)")
        if self.kind.startswith("two_cell") and self.n_bs != 2:
            raise ScenarioError("two-cell kinds require n_bs = 2")
        if self.kind.startswith("three_cell"):
            if self.n_bs != 3:
                raise ScenarioError("three-cell kinds require n_bs = 3")
            if self.mixes and len(self.mixes) != self.n_bs:
                raise ScenarioError("need one wind:solar mix per station")

    @property
    def weight_vector(self) -> np.ndarray:
        if self.weights:
            return np.asarray(self.weights, dtype=float)
        return np.ones(self.n_mt)


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_schemes(text: str, default_beta: float) -> tuple:
    specs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "@" in tok:
            variant, btxt = tok.split("@", 1)
            beta = float(btxt)
        else:
            variant, beta = tok, None
        variant = variant.strip()
        if variant in ("comm_only", "none"):
            if beta is not None:
                raise ScenarioError(f"{variant} does not take a beta")
        elif beta is None:
            beta = default_beta
        specs.append(SchemeSpec(variant, beta))
    return tuple(specs)


def _parse_mixes(text: str) -> tuple:
    mixes = []
    for pair in text.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        parts = pair.split(":")
        if len(parts) != 2:
            raise ScenarioError(f"mix {pair!r} is not wind:solar")
        mixes.append((float(parts[0]), float(parts[1])))
    return tuple(mixes)


def _convert(key: str, raw: str, convert):
    """``convert(raw)``, with a failure reported as a ScenarioError on ``key``."""
    try:
        return convert(raw)
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key}: {exc}") from None


_KIND_DEFAULTS = {
    "two_cell_sweep": dict(n_bs=2, m_ant=1, n_mt=2, noise=1.0),
    "two_cell_random": dict(n_bs=2, m_ant=1, n_mt=2, noise=1.0),
    "three_cell_profile": dict(n_bs=3, m_ant=2, n_mt=6, noise=10.0 ** (-11.5)),
    "three_cell_sweep": dict(n_bs=3, m_ant=2, n_mt=6, noise=10.0 ** (-11.5)),
}


def scenario_from_mapping(values: dict) -> Scenario:
    """Build and validate a Scenario from string key/value pairs."""
    values = dict(values)
    try:
        kind = values.pop("kind")
    except KeyError:
        raise ScenarioError("missing required key 'kind'") from None
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    fields: dict = dict(_KIND_DEFAULTS[kind])
    fields["kind"] = kind
    fields["beta"] = default_beta = _convert("beta", values.pop("beta", "0.9"), float)

    converters = {
        "n_bs": int, "m_ant": int, "n_mt": int, "n_realizations": int,
        "sweep_points": int, "slot_stride": int, "seed": int,
        "sum_energy": float, "ebar_dbw": float, "budget_skew": float,
        "noise": float, "profile": str,
        "betas": _parse_floats, "weights": _parse_floats,
        "energy_db": _parse_floats,
        "mixes": _parse_mixes,
        "schemes": lambda raw: _parse_schemes(raw, default_beta),
        "noise_dbm": lambda raw: 10.0 ** ((float(raw) - 30.0) / 10.0),
        "cross_gain": lambda raw: "random" if raw.strip() == "random" else float(raw),
    }
    for key, raw in values.items():
        if key not in converters:
            raise ScenarioError(f"unknown scenario key {key!r}")
        fields["noise" if key == "noise_dbm" else key] = _convert(key, raw, converters[key])

    if "schemes" not in fields:
        if kind == "two_cell_sweep":
            fields["schemes"] = (SchemeSpec("joint", default_beta),)
        else:
            fields["schemes"] = _parse_schemes(",".join(DEFAULT_SCHEMES), default_beta)
    try:
        return Scenario(**fields)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from None


def load_scenario(path) -> Scenario:
    """Parse a key=value scenario file; errors carry the line number."""
    values: dict = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ScenarioError(f"{path}: line {lineno}: expected key = value")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key in values:
                raise ScenarioError(f"{path}: line {lineno}: duplicate key {key!r}")
            values[key] = raw.strip()
    try:
        return scenario_from_mapping(values)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
