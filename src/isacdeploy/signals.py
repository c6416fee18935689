"""Received-signal snapshots and sample covariance for a single target.

Snapshot model: y(t) = a * s(t) + n(t), with a the target's steering vector,
s(t) a circularly-symmetric complex Gaussian source of variance E, and n(t)
i.i.d. circularly-symmetric complex Gaussian noise of per-element variance
sigma^2. A Gaussian source makes the population covariance exactly
E * a a^H + sigma^2 * I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_SNR_DB = 10.0 * float(np.log10(np.finfo(float).max / 2.0**64))
"""Highest accepted SNR, about 2,889.9 dB: the source power 10^(snr/10) stays
2^64 below the largest float, so the snapshot products and their sums over
snapshots in `sample_covariance` stay finite."""


@dataclass(frozen=True)
class PowerLevels:
    """Per-snapshot source power E and per-element noise power sigma^2."""

    signal_power: float
    noise_power: float

    def __post_init__(self):
        for name in ("signal_power", "noise_power"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)


def snr_to_powers(snr_db: float) -> PowerLevels:
    """Power pair at a given SNR: noise power normalized to 1, E = 10^(snr/10).

    `snr_db` is the array-output SNR E/sigma^2: steering vectors have unit
    norm, so the signal energy summed over all N*J elements equals E. The
    per-element SNR is 10*log10(N*J) dB lower (10.8 dB for 3 nodes x 4
    antennas).
    """
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    if snr_db > MAX_SNR_DB:
        raise ValueError(
            f"snr_db must be at most {MAX_SNR_DB:.1f} dB (a larger power overflows the sample covariance), "
            f"got {snr_db!r}"
        )
    return PowerLevels(10.0 ** (float(snr_db) / 10.0), 1.0)


def complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples of the given total variance.

    Real and imaginary parts are independent N(0, variance/2); the real block
    is drawn before the imaginary block (one standard-normal call), fixing the
    stream layout. Each block is scaled straight into its half of the result.
    Zero variance returns zeros without consuming draws.
    """
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance!r}")
    shape = tuple(shape)
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    parts = rng.standard_normal((2,) + shape)
    out = np.empty(shape, dtype=complex)
    scale = np.sqrt(variance / 2.0)
    np.multiply(parts[0], scale, out=out.real)
    np.multiply(parts[1], scale, out=out.imag)
    return out


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
    if n_snapshots < 1:
        raise ValueError(f"n_snapshots must be >= 1, got {n_snapshots!r}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    lead = () if trials is None else (trials,)
    s = complex_normal(rng, lead + (n_snapshots,), powers.signal_power)
    y = complex_normal(rng, lead + (a.size, n_snapshots), powers.noise_power)
    y += a[:, np.newaxis] * s[..., np.newaxis, :]
    return y


def sample_covariance(batch) -> np.ndarray:
    """Time-averaged outer product (1/T) sum_t y_t y_t^H, exactly Hermitian,
    of each (M, T) matrix in `batch` (..., M, T)."""
    y = np.asarray(batch, dtype=complex)
    if y.ndim < 2 or y.shape[-1] < 1:
        raise ValueError(f"batch must be a (..., M, T) array with T >= 1, got shape {y.shape}")
    r = (y @ y.conj().swapaxes(-1, -2)) / y.shape[-1]
    return 0.5 * (r + r.conj().swapaxes(-1, -2))
