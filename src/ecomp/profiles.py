"""Renewable generation profiles.

A profile holds normalized wind and solar series sampled on a fixed
15-minute grid.  The runner turns them into per-station budgets with the
scenario's mixes: station i harvests
E_i(t) = ebar * (w_wind_i * wind[t] + w_solar_i * solar[t]).
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

BUNDLED_PROFILE = "bundled"


class ProfileError(ValueError):
    """Malformed or inconsistent profile data."""


@dataclass
class EnergyProfile:
    timestamps: list
    wind: np.ndarray
    solar: np.ndarray

    def __post_init__(self):
        self.wind = np.asarray(self.wind, dtype=float)
        self.solar = np.asarray(self.solar, dtype=float)
        if len(self.timestamps) != self.wind.size or self.wind.size != self.solar.size:
            raise ProfileError("timestamps, wind and solar must have equal length")
        if self.wind.size < 2:
            raise ProfileError("profile needs at least 2 rows")
        for name, series in (("wind", self.wind), ("solar", self.solar)):
            if not np.isfinite(series).all() or series.min() < 0.0 or series.max() > 1.0 + 1e-12:
                raise ProfileError(f"{name} series not finite and normalized to [0, 1]")

    def __len__(self):
        return self.wind.size


def _normalize(series: np.ndarray) -> np.ndarray:
    peak = series.max()
    return series / peak if peak > 0 else series


def load_profiles(path) -> EnergyProfile:
    """Read a (timestamp, wind, solar) CSV and normalize each series to peak 1.

    `path` may also be the literal string "bundled" to use the packaged
    synthetic four-day profile.  Unknown columns are ignored; malformed
    rows raise ProfileError with the offending line number; timestamps
    must be strictly increasing.
    """
    if path == BUNDLED_PROFILE:
        ref = importlib.resources.files("ecomp").joinpath("data/synthetic_profile.csv")
        with ref.open("r") as fh:
            return _parse_profile_csv(fh, "bundled synthetic profile")
    with open(path, "r", newline="") as fh:
        return _parse_profile_csv(fh, str(path))


def _parse_profile_csv(fh, source: str) -> EnergyProfile:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ProfileError(f"{source}: empty file") from None
    cols = {name.strip().lower(): i for i, name in enumerate(header)}
    for required in ("timestamp", "wind", "solar"):
        if required not in cols:
            raise ProfileError(f"{source}: missing column {required!r}")
    stamps, wind, solar = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            stamp = datetime.fromisoformat(row[cols["timestamp"]].strip())
            w = float(row[cols["wind"]])
            s = float(row[cols["solar"]])
        except (ValueError, IndexError) as exc:
            raise ProfileError(f"{source}: line {lineno}: {exc}") from None
        if not (0 <= w < math.inf and 0 <= s < math.inf):
            raise ProfileError(f"{source}: line {lineno}: generation must be finite and >= 0")
        if stamps and stamp <= stamps[-1]:
            raise ProfileError(f"{source}: line {lineno}: non-monotone timestamp {stamp}")
        stamps.append(stamp)
        wind.append(w)
        solar.append(s)
    if len(stamps) < 2:
        raise ProfileError(f"{source}: profile needs at least 2 rows")
    return EnergyProfile(stamps, _normalize(np.array(wind)),
                         _normalize(np.array(solar)))

