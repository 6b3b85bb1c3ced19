"""Channel generation, zero-forcing precoding, and geometry helpers."""

import numpy as np
import pytest

from ecomp import (
    ClusterChannel,
    DegeneracyError,
    FeasibilityError,
    generate_rayleigh,
    per_bs_zf_gains,
    strongest_channel_association,
    variance_matrix,
    zf_gains,
)


def _random_channel(rng, n_bs=2, m_ant=2, n_mt=3):
    var = rng.uniform(0.2, 1.0, size=(n_bs, n_mt))
    return generate_rayleigh(n_bs, m_ant, n_mt, var, rng)


def test_generate_rayleigh_shapes_and_determinism():
    ch1 = _random_channel(np.random.default_rng(3))
    ch2 = _random_channel(np.random.default_rng(3))
    assert ch1.h.shape == (3, 4)
    np.testing.assert_array_equal(ch1.h, ch2.h)


def test_generate_rayleigh_matches_requested_variance():
    rng = np.random.default_rng(0)
    var = np.array([[0.25, 1.0], [1.0, 0.5]])
    samples = np.zeros((2, 2, 2))
    n = 4000
    for _ in range(n):
        ch = generate_rayleigh(2, 2, 2, var, rng)
        samples += np.abs(ch.h.reshape(2, 2, 2)) ** 2 / n
    per_link = samples.mean(axis=2)     # (mt, bs) average over antennas
    np.testing.assert_allclose(per_link, var.T, rtol=0.1)


def test_zf_beams_null_cross_terminals():
    rng = np.random.default_rng(11)
    ch = _random_channel(rng, n_bs=3, m_ant=2, n_mt=5)
    g = zf_gains(ch)
    for k in range(ch.n_mt):
        for l in range(ch.n_mt):
            if l == k:
                continue
            leak = abs(ch.h[l] @ g.t_dir[k]) ** 2 / (ch.h[l] @ ch.h[l].conj()).real
            assert leak < 1e-18


def test_zf_power_fractions_are_a_distribution():
    rng = np.random.default_rng(12)
    ch = _random_channel(rng)
    g = zf_gains(ch)
    assert np.all(g.b > 0)
    np.testing.assert_allclose(g.b.sum(axis=0), 1.0, atol=1e-13)


def test_zf_gain_reduces_to_matched_filter_for_single_terminal():
    rng = np.random.default_rng(13)
    var = np.array([[1.0]])
    ch = generate_rayleigh(1, 3, 1, var, rng)
    g = zf_gains(ch)
    expected = float((ch.h[0] @ ch.h[0].conj()).real)
    np.testing.assert_allclose(g.a[0], expected, rtol=1e-12)


def test_zf_rejects_oversubscribed_cluster():
    rng = np.random.default_rng(14)
    with pytest.raises(FeasibilityError):
        generate_rayleigh(2, 1, 3, np.ones((2, 3)), rng)


def test_zf_rejects_degenerate_channel():
    h = np.array([[1.0 + 0j, 0.0], [1.0 + 0j, 0.0]])
    ch = ClusterChannel(n_bs=2, m_ant=1, n_mt=2, h=h, noise_var=np.ones(2))
    with pytest.raises(DegeneracyError):
        zf_gains(ch)


def test_per_bs_zf_spends_power_only_at_the_serving_station():
    rng = np.random.default_rng(15)
    ch = _random_channel(rng, n_bs=2, m_ant=2, n_mt=4)
    assoc = [[0, 1], [2, 3]]
    g = per_bs_zf_gains(ch, assoc)
    for i, group in enumerate(assoc):
        for k in group:
            assert g.b[i, k] == 1.0
            assert np.all(g.b[np.arange(2) != i, k] == 0.0)


def test_per_bs_zf_nulls_co_scheduled_terminals():
    rng = np.random.default_rng(16)
    ch = _random_channel(rng, n_bs=2, m_ant=2, n_mt=4)
    assoc = [[0, 1], [2, 3]]
    g = per_bs_zf_gains(ch, assoc)
    for i, group in enumerate(assoc):
        blk = ch.block(i)
        for k in group:
            for l in group:
                if l == k:
                    continue
                leak = abs(ch.h[l, blk] @ g.t_dir[k, blk])
                assert leak < 1e-9


def test_per_bs_zf_validates_association():
    rng = np.random.default_rng(17)
    ch = _random_channel(rng, n_bs=2, m_ant=2, n_mt=4)
    with pytest.raises(FeasibilityError):
        per_bs_zf_gains(ch, [[0, 1, 2], [3]])       # oversubscribed
    with pytest.raises(FeasibilityError):
        per_bs_zf_gains(ch, [[0, 1], [1, 2]])       # not a partition


def test_strongest_channel_association_prefers_the_larger_variance():
    var = np.array([[1.0, 0.1, 0.6], [0.2, 0.9, 0.5]])
    assoc = strongest_channel_association(var, m_ant=2)
    assert assoc == [[0, 2], [1]]


def test_strongest_channel_association_respects_antenna_capacity():
    var = np.array([[1.0, 1.0, 1.0], [0.1, 0.1, 0.1]])
    assoc = strongest_channel_association(var, m_ant=2)
    assert sorted(len(g) for g in assoc) == [1, 2]
    flat = sorted(k for g in assoc for k in g)
    assert flat == [0, 1, 2]


def test_pathloss_variance_reference_distance():
    var = variance_matrix([[0.0, 0.0]], [[10.0, 0.0]])
    np.testing.assert_allclose(var[0, 0], 1e-6, rtol=1e-12)


def test_pathloss_variance_follows_the_exponent():
    var = variance_matrix([[0.0, 0.0]], [[100.0, 0.0]])
    expected = 1e-6 * 10.0 ** (-3.7)
    np.testing.assert_allclose(var[0, 0], expected, rtol=1e-12)


def test_variance_matrix_covers_all_links():
    var = variance_matrix(np.array([[0.0, 0.0], [1000.0, 0.0]]),
                          np.array([[100.0, 0.0], [900.0, 0.0]]))
    assert var.shape == (2, 2)
    assert var[0, 0] > var[0, 1]        # nearer station sees the larger gain
    assert var[1, 1] > var[1, 0]


def test_variance_matrix_rejects_a_zero_distance():
    with pytest.raises(ValueError, match="zero distance between BS 1 and MT 0"):
        variance_matrix([[0.0, 0.0], [5.0, 5.0]], [[5.0, 5.0]])


def test_channel_and_weights_must_be_finite():
    rng = np.random.default_rng(18)
    ch = _random_channel(rng, n_bs=2, m_ant=2, n_mt=4)
    for bad in (np.nan, np.inf, -np.inf):
        h = ch.h.copy()
        h[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ClusterChannel(n_bs=2, m_ant=2, n_mt=4, h=h, noise_var=1.0)
        with pytest.raises(ValueError, match="finite"):
            ClusterChannel(n_bs=2, m_ant=2, n_mt=4, h=ch.h, noise_var=[1.0, bad, 1.0, 1.0])
        for weights in ([bad, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                zf_gains(ch, weights)
            with pytest.raises(ValueError, match="finite"):
                per_bs_zf_gains(ch, [[0, 1], [2, 3]], weights)
    for weights in ([0.0, 1.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="weights"):
            per_bs_zf_gains(ch, [[0, 1], [2, 3]], weights)



def _ref_residual(h, k):
    """Row k of ``h`` minus its least-squares fit by the other rows, refined once."""
    others = np.delete(h, k, axis=0).T
    r = h[k]
    for _ in range(2):
        r = r - others @ np.linalg.lstsq(others, r, rcond=None)[0]
    return r


def test_zf_gains_match_the_distance_to_the_other_terminals_span():
    """a[k] is the squared distance of h_k from the span of the other served
    rows over the noise; cooperative b[:, k] splits that residual by block."""
    rng = np.random.default_rng(19)
    checked = 0
    for n_bs in range(2, 7):
        for m_ant in (1, 2):
            for n_mt in sorted({1, int(rng.integers(1, n_bs * m_ant + 1)), n_bs * m_ant}):
                var = 10.0 ** rng.uniform(-1.0, 0.0, size=(n_bs, n_mt))
                ch = generate_rayleigh(n_bs, m_ant, n_mt, var, rng,
                                       noise_var=rng.uniform(0.5, 2.0, size=n_mt))
                res = np.array([_ref_residual(ch.h, k) for k in range(n_mt)])
                power = np.abs(res) ** 2
                a = power.sum(axis=1) / ch.noise_var
                b = power.reshape(n_mt, n_bs, m_ant).sum(axis=2).T / power.sum(axis=1)
                g = zf_gains(ch)
                np.testing.assert_allclose(g.a, a, rtol=1e-10, atol=0)
                np.testing.assert_allclose(g.b, b, rtol=1e-10, atol=0)

                assoc = strongest_channel_association(var, m_ant)
                a, b = np.empty(n_mt), np.zeros((n_bs, n_mt))
                for i, group in enumerate(assoc):
                    h_i = ch.h[group, ch.block(i)]
                    for j, k in enumerate(group):
                        a[k] = np.sum(np.abs(_ref_residual(h_i, j)) ** 2) / ch.noise_var[k]
                        b[i, k] = 1.0
                g = per_bs_zf_gains(ch, assoc)
                np.testing.assert_allclose(g.a, a, rtol=1e-10, atol=0)
                np.testing.assert_array_equal(g.b, b)
                checked += 1
    assert checked >= 25


def test_per_bs_zf_rejects_degenerate_station_channels():
    rng = np.random.default_rng(20)
    h0 = _random_channel(rng, n_bs=2, m_ant=2, n_mt=3).h
    h = h0.copy()
    h[1, :2] = (0.5 - 2.0j) * h[0, :2]
    ch = ClusterChannel(n_bs=2, m_ant=2, n_mt=3, h=h, noise_var=1.0)
    with pytest.raises(DegeneracyError):
        per_bs_zf_gains(ch, [[0, 1], [2]])  # parallel co-scheduled terminals
    per_bs_zf_gains(ch, [[0, 2], [1]])      # apart, the two are served
    h = h0.copy()
    h[2, 2:] = 0.0
    ch = ClusterChannel(n_bs=2, m_ant=2, n_mt=3, h=h, noise_var=1.0)
    for assoc in ([[0, 1], [2]], [[0], [1, 2]]):
        with pytest.raises(DegeneracyError):
            per_bs_zf_gains(ch, assoc)      # no channel at its own station


def test_per_bs_zf_leaves_an_idle_station_out():
    """An empty station gets a zero b row, and the others' gains are those
    of the cluster without it."""
    rng = np.random.default_rng(21)
    ch = _random_channel(rng, n_bs=3, m_ant=2, n_mt=3)
    g = per_bs_zf_gains(ch, [[0, 1], [], [2]])
    kept = np.r_[0:2, 4:6]
    ref = per_bs_zf_gains(ClusterChannel(n_bs=2, m_ant=2, n_mt=3, h=ch.h[:, kept],
                                         noise_var=ch.noise_var), [[0, 1], [2]])
    np.testing.assert_array_equal(g.b[1], 0.0)
    np.testing.assert_array_equal(g.b[[0, 2]], ref.b)
    np.testing.assert_array_equal(g.a, ref.a)
    np.testing.assert_array_equal(g.t_dir[:, kept], ref.t_dir)
    np.testing.assert_array_equal(g.t_dir[:, 2:4], 0.0)
