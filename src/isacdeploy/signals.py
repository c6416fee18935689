"""Received-signal snapshots and sample covariance for a single target.

Snapshot model: y(t) = a * s(t) + n(t), with a the target's steering vector,
s(t) a circularly-symmetric complex Gaussian source of variance E, and n(t)
i.i.d. circularly-symmetric complex Gaussian noise of per-element variance
sigma^2. A Gaussian source makes the population covariance exactly
E * a a^H + sigma^2 * I.

`generate_snapshots` and `sample_covariance` are the plain whole-stack
formulas. `SnapshotWorkspace` is the Monte Carlo path (`music.rmse_maps` keeps
one per worker thread): it draws a stack's source and noise blocks once, as
contiguous float halves, and reduces them once to per-trial sums with real
matrix products; each steering vector's covariances are then an (M, M)
assembly per trial, equal to the plain formulas up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import integer_at_least, real_in

MAX_SNR_DB = 10.0 * float(np.log10(np.finfo(float).max / 2.0**64))
"""Highest accepted SNR, about 2,889.9 dB: the source power 10^(snr/10) stays
2^64 below the largest float, so the snapshot products and their sums over
snapshots in `sample_covariance` stay finite."""

MIN_SNR_DB = 10.0 * float(np.log10(np.finfo(float).smallest_subnormal) - np.log10(2.0))
"""Lowest accepted SNR, about -3,236.1 dB: below it the source power 10^(snr/10) rounds to 0."""


@dataclass(frozen=True)
class PowerLevels:
    """Per-snapshot source power E and per-element noise power sigma^2."""

    signal_power: float
    noise_power: float

    def __post_init__(self):
        for name in ("signal_power", "noise_power"):
            object.__setattr__(self, name, real_in(name, getattr(self, name), 0.0))


def snr_to_powers(snr_db: float) -> PowerLevels:
    """Power pair at a given SNR: noise power normalized to 1, E = 10^(snr/10).

    `snr_db` is the array-output SNR E/sigma^2: steering vectors have unit
    norm, so the signal energy summed over all N*J elements equals E. The
    per-element SNR is 10*log10(N*J) dB lower (10.8 dB for 3 nodes x 4
    antennas).
    """
    if real_in("snr_db", snr_db) > MAX_SNR_DB:
        raise ValueError(
            f"snr_db must be at most {MAX_SNR_DB:.1f} dB (a larger power overflows the sample covariance), "
            f"got {snr_db!r}"
        )
    signal_power = 10.0 ** (float(snr_db) / 10.0)
    if signal_power == 0.0:
        raise ValueError(
            f"snr_db must be above about {MIN_SNR_DB:.1f} dB (a lower power underflows to 0), got {snr_db!r}"
        )
    return PowerLevels(signal_power, 1.0)


def complex_normal(rng: np.random.Generator, shape, variance: float, out=None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples of the given total variance.

    Real and imaginary parts are independent N(0, variance/2); all real parts
    are drawn before all imaginary parts, the stream layout of one (2, *shape)
    standard-normal call. With `out`, a C-contiguous float array of shape
    (2, *shape), the real parts go to out[0] and the imaginary parts to out[1],
    each drawn straight into place and scaled there, and `out` is returned;
    without it, a new complex array of `shape`. Zero variance fills zeros
    without consuming draws.
    """
    real_in("variance", variance, 0.0)
    halves = (2,) + tuple(shape)
    parts = np.empty(halves) if out is None else out
    if parts.shape != halves or parts.dtype != float or not parts.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float array of shape {halves}")
    if variance == 0.0:
        parts.fill(0.0)
    else:
        for half in parts.reshape(2, parts.size // 2):
            rng.standard_normal(out=half)
            half *= np.sqrt(variance / 2.0)
    if out is not None:
        return out
    z = np.empty(halves[1:], dtype=complex)
    z.real, z.imag = parts
    return z


class SnapshotWorkspace:
    """Buffers for one (trials, M, T) snapshot stack, reused draw after draw.

    `sources` holds the (trials, T) source block s and `noise` the noise block
    n, each as `complex_normal`'s contiguous float halves: real parts in [0],
    imaginary parts in [1]. `draw` refills them and replaces the per-trial sums
    `power` S = sum_t |s_t|^2, `cross` b = sum_t n_t s_t^* and
    `gram` C = sum_t n_t n_t^H, so nothing carries over from one draw to the
    next. Then T * R(a) = S*a a^H + a b^H + b a^H + C for every steering vector a.
    """

    def __init__(self, trials: int, m: int, t: int):
        self.sources = np.empty((2, trials, t))
        self.noise = np.empty((2, trials, m, t))

    def draw(self, powers: PowerLevels, rng: np.random.Generator) -> None:
        """Fill `sources` and `noise`, then reduce them. Stream order: all source
        samples s (variance E), then all noise samples (variance sigma^2). Every
        sum is a product of contiguous real blocks: Re C = R R^T + I I^T and
        Im C = Q - Q^T with Q = I R^T over n = R + iI, and b from four
        matrix-vector products."""
        sr, si = complex_normal(rng, self.sources.shape[1:], powers.signal_power, out=self.sources)
        nr, ni = complex_normal(rng, self.noise.shape[1:], powers.noise_power, out=self.noise)
        self.power = np.sum(sr * sr, axis=-1) + np.sum(si * si, axis=-1)
        sr, si = sr[..., np.newaxis], si[..., np.newaxis]
        self.cross = (nr @ sr + ni @ si + 1j * (ni @ sr - nr @ si))[..., 0]
        q = ni @ nr.swapaxes(-1, -2)
        self.gram = (nr @ nr.swapaxes(-1, -2) + ni @ ni.swapaxes(-1, -2)).astype(complex)
        np.subtract(q, q.swapaxes(-1, -2), out=self.gram.imag)

    def covariances(self, a: np.ndarray) -> np.ndarray:
        """`sample_covariance` of the snapshots y = a*s + n of the steering
        vector `a`, shape (trials, M, M), assembled from the last draw's sums."""
        ab = a[:, np.newaxis] * self.cross[:, np.newaxis, :].conj()
        r = self.power[:, np.newaxis, np.newaxis] * np.outer(a, a.conj()) + ab + ab.conj().swapaxes(-1, -2) + self.gram
        r /= self.noise.shape[-1]
        return 0.5 * (r + r.conj().swapaxes(-1, -2))


def generate_snapshots(
    a, powers: PowerLevels, n_snapshots: int, rng: np.random.Generator, trials: int | None = None
) -> np.ndarray:
    """Snapshot matrix, shape (len(a), n_snapshots): column t = a*s(t) + n(t).

    With `trials`, a stack of `trials` independent matrices. Stream order: all
    source samples s (variance E), then all noise samples (variance sigma^2),
    so trials=1 draws what the unbatched call draws.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"steering vector must be 1-D and non-empty, got shape {a.shape}")
    n_snapshots = integer_at_least("n_snapshots", n_snapshots, 1)
    lead = () if trials is None else (integer_at_least("trials", trials, 1),)
    sources = complex_normal(rng, lead + (n_snapshots,), powers.signal_power)
    y = complex_normal(rng, lead + (a.size, n_snapshots), powers.noise_power)
    y += a[:, np.newaxis] * sources[..., np.newaxis, :]
    return y


def sample_covariance(batch) -> np.ndarray:
    """Time-averaged outer product (1/T) sum_t y_t y_t^H, exactly Hermitian,
    of each (M, T) matrix in `batch` (..., M, T)."""
    y = np.asarray(batch, dtype=complex)
    if y.ndim < 2 or y.shape[-1] < 1:
        raise ValueError(f"batch must be a (..., M, T) array with T >= 1, got shape {y.shape}")
    r = y @ y.conj().swapaxes(-1, -2)
    r /= y.shape[-1]
    return 0.5 * (r + r.conj().swapaxes(-1, -2))
