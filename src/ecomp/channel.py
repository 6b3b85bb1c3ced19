"""Cluster channel generation and zero-forcing precoder quantities.

A cluster has N base stations with M antennas each, jointly serving K
single-antenna terminals (K <= M*N).  The ZF precoder for terminal k points
into the null space of all other terminals' channels, so each terminal sees
an interference-free scalar channel with effective gain ``a[k]`` and per-BS
power cost coefficients ``b[i, k]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The served channel rows count as linearly dependent when their smallest
# singular value is at most this fraction of the largest.
RANK_RTOL = 1e-10

# Floor for the effective gains; downstream closed forms divide by these.
GAIN_FLOOR = 1e-14

# Distance pathloss law: variance c0 * (d / d0) ** -exponent, with
# c0 = -60 dB at the reference distance d0 = 10 m.
PATHLOSS_C0 = 10.0 ** (-60.0 / 10.0)
PATHLOSS_D0 = 10.0
PATHLOSS_EXP = 3.7


class FeasibilityError(ValueError):
    """Raised when cluster dimensions make ZF precoding impossible."""


class DegeneracyError(ValueError):
    """Raised when a channel realization is too degenerate for ZF."""


@dataclass(frozen=True)
class ClusterChannel:
    """Channel realization for one CoMP cluster.

    ``h`` has K rows; row k is the stacked channel from all N BSs to
    terminal k, so it has M*N complex entries (BS i occupies the columns
    ``i*M : (i+1)*M``).  ``noise_var`` is the per-terminal noise power.
    """

    n_bs: int
    m_ant: int
    n_mt: int
    h: np.ndarray
    noise_var: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        nv = np.atleast_1d(np.asarray(self.noise_var, dtype=float))
        if nv.size == 1:
            nv = np.full(self.n_mt, float(nv[0]))
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "noise_var", nv)
        if self.n_mt > self.m_ant * self.n_bs:
            raise FeasibilityError(
                f"K={self.n_mt} terminals exceed M*N={self.m_ant * self.n_bs} antennas"
            )
        if h.shape != (self.n_mt, self.m_ant * self.n_bs):
            raise ValueError(f"channel matrix has shape {h.shape}, "
                             f"expected {(self.n_mt, self.m_ant * self.n_bs)}")
        if not np.all(np.isfinite(h)):
            raise ValueError("channel matrix must be finite")
        if nv.shape != (self.n_mt,) or not np.all(np.isfinite(nv) & (nv > 0)):
            raise ValueError("noise_var must be positive and finite, one entry per terminal")
        if np.any(np.linalg.norm(h, axis=1) == 0.0):
            raise DegeneracyError("channel matrix has an all-zero row")

    def block(self, i: int) -> slice:
        """Column slice of BS i's antennas."""
        return slice(i * self.m_ant, (i + 1) * self.m_ant)


@dataclass(frozen=True)
class ZfGains:
    """Scalarized quantities of a ZF precoder design.

    ``a[k]`` is the effective power gain of terminal k (rate is
    log2(1 + a[k] p[k])), ``b[i, k]`` is the fraction of p[k] spent at
    BS i, ``t_dir[k]`` the unit-norm precoder direction, and ``weights``
    the rate weights.  Values the solver cannot certify raise ValueError.
    """

    a: np.ndarray
    b: np.ndarray
    t_dir: np.ndarray        # K x (M*N), row k = direction for terminal k
    weights: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "t_dir", np.asarray(self.t_dir, dtype=complex))
        a, b, w = self.a, self.b, self.weights
        if b.ndim != 2 or a.shape != (b.shape[1],) or w.shape != a.shape:
            raise ValueError(f"b, a and weights need shapes (N, K), (K,) and (K,); "
                             f"got {b.shape}, {a.shape} and {w.shape}")
        if not np.all(np.isfinite(w) & (w > 0)):
            raise ValueError("weights must be positive and finite")
        if not (np.all(np.isfinite(a) & (a > 0)) and np.all(np.isfinite(b) & (b >= 0))
                and np.all(np.any(b > 0, axis=0))):
            raise ValueError("gains need finite a > 0 and b >= 0, with a positive "
                             "entry in every column of b")

    @property
    def n_bs(self) -> int:
        return self.b.shape[0]

    @property
    def n_mt(self) -> int:
        return self.a.size


def variance_matrix(bs_positions, mt_positions) -> np.ndarray:
    """N x K pathloss variances from each BS to each terminal (positions in m)."""
    bs = np.asarray(bs_positions, dtype=float)
    mt = np.asarray(mt_positions, dtype=float)
    var = np.empty((len(bs), len(mt)))
    for i, b in enumerate(bs):
        for k, m in enumerate(mt):
            d = float(np.linalg.norm(b - m))
            if d <= 0.0:
                raise ValueError(f"zero distance between BS {i} and MT {k}")
            var[i, k] = PATHLOSS_C0 * (d / PATHLOSS_D0) ** (-PATHLOSS_EXP)
    return var


def generate_rayleigh(n_bs: int, m_ant: int, n_mt: int,
                      variances, rng_seed, noise_var=1.0) -> ClusterChannel:
    """Draw an i.i.d. Rayleigh-fading cluster channel.

    ``variances`` is an N x K matrix of per-(BS, MT) average channel powers;
    every antenna entry of block (i, k) is complex Gaussian with that
    variance, split equally between real and imaginary parts.
    """
    var = np.asarray(variances, dtype=float)
    if var.shape != (n_bs, n_mt):
        raise FeasibilityError(f"variances shape {var.shape} != {(n_bs, n_mt)}")
    if np.any(var <= 0):
        raise FeasibilityError("channel variances must be strictly positive")
    rng = np.random.default_rng(rng_seed)
    std = np.sqrt(np.repeat(var.T, m_ant, axis=1) / 2.0)  # K x MN per-component std
    shape = (n_mt, m_ant * n_bs)
    h = std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ClusterChannel(n_bs=n_bs, m_ant=m_ant, n_mt=n_mt, h=h,
                          noise_var=np.broadcast_to(noise_var, (n_mt,)).copy())


def _zf_beams(h: np.ndarray, noise_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit ZF directions (rows) and effective gains for the rows of ``h``.

    Row k's beam is column k of the pseudo-inverse of ``h``: it is nulled
    by every other row and has unit gain on row k, so its squared norm is
    the inverse of the power of h_k orthogonal to the other rows.  Raises
    DegeneracyError if the rows are not numerically independent.
    """
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise DegeneracyError("rank-deficient channel matrix")
    beams = vh.conj().T @ (u.conj().T / s[:, None])
    norm = np.linalg.norm(beams, axis=0)
    power = 1.0 / norm ** 2
    low = power <= GAIN_FLOOR * np.linalg.norm(h, axis=1) ** 2
    if np.any(low):
        raise DegeneracyError(f"row {int(np.argmax(low))} lies in the other rows' span")
    return (beams / norm).T, power / noise_var


def _rate_weights(weights, k_mt: int):
    """Rate weights, all ones when ``weights`` is None; ZfGains checks them."""
    return np.ones(k_mt) if weights is None else weights


def zf_gains(ch: ClusterChannel, weights=None) -> ZfGains:
    """Cooperative ZF precoding across all BSs of the cluster.

    Terminal k's direction is the normalized column k of the pseudo-inverse
    of ``h``; ``a[k]`` is the power of h_k orthogonal to the other
    terminals' channels over the noise and ``b[i, k]`` the squared norm of
    the direction's BS-i antenna block.
    """
    w = _rate_weights(weights, ch.n_mt)
    t_dir, a = _zf_beams(ch.h, ch.noise_var)
    b = (np.abs(t_dir) ** 2).reshape(ch.n_mt, ch.n_bs, ch.m_ant).sum(axis=2).T
    if np.any(b <= GAIN_FLOOR):
        i, k = np.unravel_index(int(np.argmin(b)), b.shape)
        raise DegeneracyError(f"vanishing power coefficient b[{i},{k}]")
    return ZfGains(a=a, b=b, t_dir=t_dir, weights=w)


def per_bs_zf_gains(ch: ClusterChannel, association, weights=None) -> ZfGains:
    """ZF precoding per BS, each serving only its associated terminals.

    ``association`` lists, per BS, the terminal indices it serves; the
    partition must be disjoint, cover all terminals, and respect the
    per-BS antenna budget (K_i <= M).  Power cost coefficients become the
    association indicator.
    """
    k_mt = ch.n_mt
    w = _rate_weights(weights, k_mt)
    assoc = [list(g) for g in association]
    if len(assoc) != ch.n_bs:
        raise FeasibilityError("association must have one terminal set per BS")
    flat = sorted(k for g in assoc for k in g)
    if flat != list(range(k_mt)):
        raise FeasibilityError("association is not a partition of the terminals")
    for i, g in enumerate(assoc):
        if len(g) > ch.m_ant:
            raise FeasibilityError(f"BS {i} oversubscribed: {len(g)} MTs > M={ch.m_ant}")

    a = np.empty(k_mt)
    b = np.zeros((ch.n_bs, k_mt))
    t_dir = np.zeros((k_mt, ch.m_ant * ch.n_bs), dtype=complex)
    for i, group in enumerate(assoc):
        if not group:
            continue
        blk = ch.block(i)
        try:
            t_dir[group, blk], a[group] = _zf_beams(ch.h[group, blk], ch.noise_var[group])
        except DegeneracyError as exc:
            raise DegeneracyError(f"BS {i} serving MTs {group}: {exc}") from exc
        b[i, group] = 1.0
    return ZfGains(a=a, b=b, t_dir=t_dir, weights=w)


def strongest_channel_association(variances, m_ant: int) -> list[list[int]]:
    """Assign each terminal to the BS with the largest average channel power.

    Ties break toward the lowest BS index.  When a BS fills up (M
    terminals), overflow goes to the next-best BS with spare antennas;
    terminals with the largest best/second-best margin claim slots first.
    """
    var = np.asarray(variances, dtype=float)
    n_bs, k_mt = var.shape
    if k_mt > n_bs * m_ant:
        raise FeasibilityError("more terminals than total antenna capacity")
    order = np.argsort(var, axis=0)[::-1]          # BS preference per terminal
    top = var[order[0], np.arange(k_mt)]
    second = var[order[1], np.arange(k_mt)] if n_bs > 1 else np.zeros(k_mt)
    groups: list[list[int]] = [[] for _ in range(n_bs)]
    for k in sorted(range(k_mt), key=lambda k: -(top[k] - second[k])):
        for i in sorted(range(n_bs), key=lambda i: (-var[i, k], i)):
            if len(groups[i]) < m_ant:
                groups[i].append(k)
                break
    for g in groups:
        g.sort()
    return groups
