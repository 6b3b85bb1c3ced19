"""Declarative scenario configuration.

A scenario file is plain ``key = value`` text (``#`` starts a comment).
Lists are comma separated; per-station generation mixes use
``wind:solar`` pairs separated by semicolons.  See README for the full
schema and one example per scenario kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Keys that every kind reads: shape, noise, weights, size and seed.
COMMON_KEYS = "n_bs m_ant n_mt noise noise_dbm weights n_realizations seed"

# Per kind: its defaults and the keys it reads on top of COMMON_KEYS.  The
# three-cell mixes make station 1 balanced, 2 solar-heavy and 3 wind-heavy.
_TWO_CELL = dict(n_bs=2, m_ant=1, n_mt=2, noise=1.0)
_THREE_CELL = dict(n_bs=3, m_ant=2, n_mt=6, noise=10.0 ** (-11.5),
                   mixes=((0.5, 0.5), (0.1, 0.9), (0.9, 0.1)))
SCENARIO_KINDS = {
    "two_cell_sweep": (_TWO_CELL, "cross_gain sum_energy sweep_points betas"),
    "two_cell_random": (_TWO_CELL, "cross_gain energy_db budget_skew beta schemes"),
    "three_cell_profile": (_THREE_CELL, "profile ebar_dbw mixes slot_stride beta schemes"),
    "three_cell_sweep": (_THREE_CELL, "profile energy_db mixes slot_stride beta schemes"),
}

DEFAULT_SCHEMES = ("joint", "comm_only", "energy_only", "none")
NO_TRANSFER = ("comm_only", "none")


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
        if int(self.seed) < 0:
            raise ScenarioError("seed must be nonnegative")
        if self.n_mt > self.m_ant * self.n_bs:
            raise ScenarioError(f"n_mt={self.n_mt} exceeds "
                                f"m_ant*n_bs={self.m_ant * self.n_bs}")
        if not self.schemes:
            raise ScenarioError("scheme list must be nonempty")
        for i, spec in enumerate(self.schemes):
            if spec.variant not in DEFAULT_SCHEMES:
                raise ScenarioError(f"unknown scheme {spec.variant!r}")
            if (spec.beta is None) != (spec.variant in NO_TRANSFER):
                raise ScenarioError(f"{spec.variant} " + ("needs a beta" if spec.beta is None
                                                          else "does not take a beta"))
            if spec.beta is not None and not 0.0 <= spec.beta <= 1.0:
                raise ScenarioError(f"beta {spec.beta} outside [0, 1]")
            if spec.label() in [other.label() for other in self.schemes[:i]]:
                raise ScenarioError(f"scheme {spec.label()} is listed twice")
        if self.noise <= 0:
            raise ScenarioError("noise power must be positive")
        if self.weights and len(self.weights) != self.n_mt:
            raise ScenarioError("weights length must equal n_mt")
        if any(wt <= 0 for wt in self.weights):
            raise ScenarioError("weights must be positive")
        if self.kind == "two_cell_sweep" and self.sum_energy <= 0:
            raise ScenarioError("sum_energy must be positive")
        if self.kind in ("two_cell_random", "three_cell_sweep"):
            if len(self.energy_db) < 2:
                raise ScenarioError(f"{self.kind} needs >= 2 energy_db points")
            if list(self.energy_db) != sorted(self.energy_db):
                raise ScenarioError("energy_db sweep must be ascending")
        if not 0.0 < self.budget_skew < 2.0:
            raise ScenarioError("budget_skew must lie in (0, 2)")
        if self.cross_gain != "random" and self.cross_gain <= 0:
            raise ScenarioError("cross_gain must be positive or 'random'")
        if max((self.ebar_dbw, *self.energy_db)) > 3082.0:
            raise ScenarioError("energy_db and ebar_dbw must be at most 3082 dB: "
                                "a higher level in watts overflows a float")
        if self.kind.startswith("two_cell") and self.n_bs != 2:
            raise ScenarioError("two-cell kinds require n_bs = 2")
        if self.kind.startswith("three_cell"):
            if self.n_bs != 3:
                raise ScenarioError("three-cell kinds require n_bs = 3")
            if self.n_mt % self.n_bs:
                raise ScenarioError(f"n_mt={self.n_mt} must be a multiple of "
                                    f"n_bs={self.n_bs}: each cell holds n_mt/n_bs")
            if len(self.mixes) != self.n_bs:
                raise ScenarioError("need one wind:solar mix per station")
            if any(len(pair) != 2 or min(pair) < 0 for pair in self.mixes):
                raise ScenarioError("mixes must be nonnegative wind:solar pairs")

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
        if beta is None and variant not in NO_TRANSFER:
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


def scenario_from_mapping(values: dict) -> Scenario:
    """Build and validate a Scenario from string key/value pairs."""
    values = dict(values)
    try:
        kind = values.pop("kind")
    except KeyError:
        raise ScenarioError("missing required key 'kind'") from None
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    defaults, kind_keys = SCENARIO_KINDS[kind]
    for key in values:
        if key not in f"{COMMON_KEYS} {kind_keys}".split():
            raise ScenarioError(f"{key}: {kind} does not read this key")
    if "noise" in values and "noise_dbm" in values:
        raise ScenarioError("noise_dbm: noise is set too; give one of them")
    fields: dict = dict(defaults)
    fields["kind"] = kind
    default_beta = _convert("beta", values.pop("beta", "0.9"), float)
    betas = _convert("betas", values.pop("betas", ""), _parse_floats)
    for b in (default_beta, *betas):
        if not 0.0 <= b <= 1.0:
            raise ScenarioError(f"beta {b} outside [0, 1]")

    converters = {
        "n_bs": int, "m_ant": int, "n_mt": int, "n_realizations": int,
        "sweep_points": int, "slot_stride": int, "seed": int,
        "sum_energy": float, "ebar_dbw": float, "budget_skew": float,
        "noise": float, "profile": str,
        "weights": _parse_floats, "energy_db": _parse_floats,
        "mixes": _parse_mixes,
        "schemes": lambda raw: _parse_schemes(raw, default_beta),
        "noise_dbm": lambda raw: 10.0 ** ((float(raw) - 30.0) / 10.0),
        "cross_gain": lambda raw: "random" if raw.strip() == "random" else float(raw),
    }
    for key, raw in values.items():
        fields["noise" if key == "noise_dbm" else key] = _convert(key, raw, converters[key])

    if kind == "two_cell_sweep":
        if not betas:
            raise ScenarioError("two_cell_sweep needs a betas list")
        fields["schemes"] = tuple(SchemeSpec("joint", b) for b in betas)
    elif "schemes" not in fields:
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
