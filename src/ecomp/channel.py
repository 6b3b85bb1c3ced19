"""Cluster channel generation and zero-forcing precoder quantities.

A cluster has N base stations with M antennas each, jointly serving K
single-antenna terminals (K <= M*N).  The ZF precoder for terminal k points
into the null space of all other terminals' channels, so each terminal sees
an interference-free scalar channel with effective gain ``a[k]`` and per-BS
power cost coefficients ``b[i, k]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Singular values below this fraction of the largest are treated as zero
# when computing the numerical rank / null space.
RANK_RTOL = 1e-10

# Floor for the effective gains; downstream closed forms divide by these.
GAIN_FLOOR = 1e-14


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
    the rate weights.
    """

    a: np.ndarray
    b: np.ndarray
    t_dir: np.ndarray        # K x (M*N), row k = direction for terminal k
    weights: np.ndarray

    def __post_init__(self):
        for name in ("a", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "t_dir", np.asarray(self.t_dir, dtype=complex))

    @property
    def n_bs(self) -> int:
        return self.b.shape[0]

    @property
    def n_mt(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class ScenarioGeometry:
    """BS/MT positions plus a distance pathloss law."""

    bs_positions: np.ndarray   # N x 2, meters
    mt_positions: np.ndarray   # K x 2, meters
    pathloss_c0_db: float = -60.0
    pathloss_d0: float = 10.0
    pathloss_exp: float = 3.7

    def __post_init__(self):
        object.__setattr__(self, "bs_positions", np.asarray(self.bs_positions, dtype=float))
        object.__setattr__(self, "mt_positions", np.asarray(self.mt_positions, dtype=float))


def pathloss_variance(geometry: ScenarioGeometry, i: int, k: int) -> float:
    """Linear-scale channel variance from BS i to terminal k."""
    d = float(np.linalg.norm(geometry.bs_positions[i] - geometry.mt_positions[k]))
    if d <= 0.0:
        raise ValueError(f"zero distance between BS {i} and MT {k}")
    c0 = 10.0 ** (geometry.pathloss_c0_db / 10.0)
    return c0 * (d / geometry.pathloss_d0) ** (-geometry.pathloss_exp)


def variance_matrix(geometry: ScenarioGeometry) -> np.ndarray:
    """N x K matrix of pathloss variances for all BS/MT pairs."""
    n = geometry.bs_positions.shape[0]
    k = geometry.mt_positions.shape[0]
    return np.array([[pathloss_variance(geometry, i, kk) for kk in range(k)]
                     for i in range(n)])


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
    if n_mt > m_ant * n_bs:
        raise FeasibilityError(f"K={n_mt} exceeds M*N={m_ant * n_bs}")
    rng = np.random.default_rng(rng_seed)
    std = np.sqrt(np.repeat(var.T, m_ant, axis=1) / 2.0)  # K x MN per-component std
    shape = (n_mt, m_ant * n_bs)
    h = std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ClusterChannel(n_bs=n_bs, m_ant=m_ant, n_mt=n_mt, h=h,
                          noise_var=np.broadcast_to(noise_var, (n_mt,)).copy())


def _null_space(mat: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` (columns).

    ``mat`` may have zero rows (empty), in which case the basis is the
    identity.  Raises DegeneracyError if ``mat`` is rank deficient, since
    the ZF construction assumes linearly independent rows.
    """
    if mat.shape[0] == 0:
        return np.eye(dim, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    if rank < mat.shape[0]:
        raise DegeneracyError("rank-deficient co-channel matrix")
    return vh[rank:].conj().T


def _rate_weights(weights, k_mt: int) -> np.ndarray:
    """Validated rate weights, all ones when ``weights`` is None."""
    w = np.ones(k_mt) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k_mt,) or not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must be positive and finite, one per terminal")
    return w


def zf_gains(ch: ClusterChannel, weights=None) -> ZfGains:
    """Cooperative ZF precoding across all BSs of the cluster.

    For each terminal k, the direction is the normalized projection of
    h_k onto the null space of the other terminals' channels; ``a[k]`` is
    the residual channel power over the noise and ``b[i, k]`` the squared
    norm of the direction's BS-i antenna block.
    """
    k_mt, mn = ch.h.shape
    w = _rate_weights(weights, k_mt)

    a = np.empty(k_mt)
    b = np.empty((ch.n_bs, k_mt))
    t_dir = np.empty((k_mt, mn), dtype=complex)
    for k in range(k_mt):
        h_others = np.delete(ch.h, k, axis=0)
        try:
            v_null = _null_space(h_others, mn)
        except DegeneracyError as exc:
            raise DegeneracyError(f"co-channel matrix of MT {k} is rank deficient") from exc
        proj = v_null @ (v_null.conj().T @ ch.h[k].conj())
        nrm = np.linalg.norm(proj)
        if nrm <= np.sqrt(GAIN_FLOOR) * np.linalg.norm(ch.h[k]):
            raise DegeneracyError(f"MT {k} channel lies in the other MTs' span")
        t = proj / nrm
        a[k] = nrm ** 2 / ch.noise_var[k]
        for i in range(ch.n_bs):
            b[i, k] = float(np.sum(np.abs(t[ch.block(i)]) ** 2))
        t_dir[k] = t
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
        blk = ch.block(i)
        for k in group:
            h_local = ch.h[k, blk]
            h_others = np.array([ch.h[l, blk] for l in group if l != k])
            h_others = h_others.reshape(len(group) - 1, ch.m_ant)
            try:
                v_null = _null_space(h_others, ch.m_ant)
            except DegeneracyError as exc:
                raise DegeneracyError(f"co-channel matrix of MT {k} at BS {i} "
                                      "is rank deficient") from exc
            proj = v_null @ (v_null.conj().T @ h_local.conj())
            nrm = np.linalg.norm(proj)
            if nrm <= np.sqrt(GAIN_FLOOR) * max(np.linalg.norm(h_local), 1e-300):
                raise DegeneracyError(f"MT {k} channel at BS {i} lies in its "
                                      "co-scheduled MTs' span")
            a[k] = nrm ** 2 / ch.noise_var[k]
            b[i, k] = 1.0
            t_dir[k, blk] = proj / nrm
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
