"""Renewable generation profiles: loading, normalization and validation."""

import numpy as np
import pytest

from ecomp import EnergyProfile, ProfileError, load_profiles


def test_bundled_profile_loads_and_is_normalized():
    prof = load_profiles("bundled")
    assert len(prof) >= 96
    assert prof.wind.max() == pytest.approx(1.0)
    assert prof.solar.max() == pytest.approx(1.0)
    assert prof.wind.min() >= 0.0 and prof.solar.min() >= 0.0
    assert np.sum(prof.solar == 0.0) > 0.25 * len(prof)   # night hours


def test_bundled_timestamps_strictly_increase():
    prof = load_profiles("bundled")
    assert all(a < b for a, b in zip(prof.timestamps, prof.timestamps[1:]))


def test_profile_validation():
    with pytest.raises(ProfileError):
        EnergyProfile(timestamps=("t0",), wind=np.array([1.0]),
                      solar=np.array([1.0]))
    with pytest.raises(ProfileError):
        EnergyProfile(timestamps=("t0", "t1"), wind=np.array([1.0, 2.0]),
                      solar=np.array([0.0, 1.0]))


def test_csv_parsing_reports_the_offending_line(tmp_path):
    bad = tmp_path / "profile.csv"
    bad.write_text("timestamp,wind,solar\n"
                   "2013-10-01T00:00,0.5,0.0\n"
                   "2013-10-01T00:15,oops,0.1\n")
    with pytest.raises(ProfileError, match="line 3"):
        load_profiles(bad)


def test_csv_rejects_non_monotone_timestamps(tmp_path):
    bad = tmp_path / "profile.csv"
    bad.write_text("timestamp,wind,solar\n"
                   "2013-10-01T01:00,0.5,0.0\n"
                   "2013-10-01T00:45,0.6,0.1\n")
    with pytest.raises(ProfileError, match="timestamp"):
        load_profiles(bad)


@pytest.mark.parametrize("wind, solar", [("nan", "0.1"), ("0.5", "inf"), ("-inf", "0.1")])
def test_csv_rejects_generation_that_is_not_finite(tmp_path, wind, solar):
    bad = tmp_path / "profile.csv"
    bad.write_text("timestamp,wind,solar\n"
                   "2013-10-01T00:00,0.5,0.0\n"
                   f"2013-10-01T00:15,{wind},{solar}\n")
    with pytest.raises(ProfileError, match="line 3: generation must be finite"):
        load_profiles(bad)


def test_a_series_that_is_not_finite_is_rejected():
    with pytest.raises(ProfileError, match="solar series not finite"):
        EnergyProfile(timestamps=("t0", "t1"), wind=np.array([1.0, 0.5]),
                      solar=np.array([np.nan, 1.0]))


def test_csv_rejects_missing_columns(tmp_path):
    bad = tmp_path / "profile.csv"
    bad.write_text("timestamp,wind\n2013-10-01T00:00,0.5\n")
    with pytest.raises(ProfileError, match="solar"):
        load_profiles(bad)


def test_csv_normalizes_peaks(tmp_path):
    good = tmp_path / "profile.csv"
    good.write_text("timestamp,wind,solar,extra\n"
                    "2013-10-01T00:00,2.0,0.0,9\n"
                    "2013-10-01T00:15,4.0,8.0,9\n")
    prof = load_profiles(good)
    np.testing.assert_allclose(prof.wind, [0.5, 1.0])
    np.testing.assert_allclose(prof.solar, [0.0, 1.0])
