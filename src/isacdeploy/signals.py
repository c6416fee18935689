"""Received-signal snapshots and sample covariance for a single target.

Snapshot model: y(t) = a * s(t) + n(t), with a the target's steering vector,
s(t) a circularly-symmetric complex Gaussian source of variance E, and n(t)
i.i.d. circularly-symmetric complex Gaussian noise of per-element variance
sigma^2. A Gaussian source makes the population covariance exactly
E * a a^H + sigma^2 * I.

`generate_snapshots` and `sample_covariance` are the plain whole-stack
formulas. `SnapshotWorkspace` is the Monte Carlo path (`music.rmse_maps` keeps
one per worker thread): it draws a stack's source and noise blocks once and
reduces y = a*s + n for each steering vector a chunk of trials at a time, so a
reused workspace allocates only the covariances, and its bits are those of the
plain formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import integer_at_least, real_in

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
    return PowerLevels(10.0 ** (float(snr_db) / 10.0), 1.0)


CHUNK_BYTES = 1 << 18
"""Target size of each of a `SnapshotWorkspace`'s two scratch chunks. It
changes no result; scratches from one trial to a whole 50-trial stack timed
alike on a 2-core Xeon, and a small one keeps a thread's memory near one stack."""


def complex_normal(rng: np.random.Generator, shape, variance: float, out=None, scratch=None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples of the given total variance.

    Real and imaginary parts are independent N(0, variance/2); all real parts
    are drawn before all imaginary parts, the stream layout of one (2, *shape)
    standard-normal call. The raw draws pass through `scratch` (a contiguous
    float array of any length >= 1) a piece at a time and are scaled straight
    into `out` (a C-contiguous complex array of `shape`); either is allocated
    when not given, so a caller that reuses both allocates nothing. Zero
    variance fills zeros without consuming draws.
    """
    real_in("variance", variance, 0.0)
    shape = tuple(shape)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {shape}")
    if variance == 0.0:
        out.fill(0.0)
        return out
    flat = out.reshape(-1)
    if scratch is None:
        scratch = np.empty(max(1, flat.size))
    scale = np.sqrt(variance / 2.0)
    for half in (flat.real, flat.imag):
        for i0 in range(0, flat.size, scratch.size):
            draws = scratch[: min(scratch.size, flat.size - i0)]
            rng.standard_normal(out=draws)
            np.multiply(draws, scale, out=half[i0 : i0 + draws.size])
    return out


class SnapshotWorkspace:
    """Buffers for one (trials, M, T) snapshot stack and its covariances, reused draw after draw.

    `sources` holds the (trials, T) source block s and `noise` the noise block
    n. `scratch` holds two chunks of k whole trials, about `CHUNK_BYTES` each
    and at least one trial: the raw normal draws pass through its float view,
    and `covariances` builds each chunk of y = a*s + n and its conjugate in
    it. Every step writes a buffer before reading it, so nothing carries over
    from one draw to the next.
    """

    def __init__(self, trials: int, m: int, t: int):
        self.noise = np.empty((trials, m, t), dtype=complex)
        self.sources = np.empty((trials, t), dtype=complex)
        per_trial = max(1, m * t) * np.dtype(complex).itemsize
        self.scratch = np.empty((2, max(1, min(trials, CHUNK_BYTES // per_trial)), m, t), dtype=complex)

    def draw(self, powers: PowerLevels, rng: np.random.Generator) -> None:
        """Fill `sources` and `noise`. Stream order: all source samples s
        (variance E), then all noise samples (variance sigma^2)."""
        draws = self.scratch.reshape(-1).view(float)
        complex_normal(rng, self.sources.shape, powers.signal_power, out=self.sources, scratch=draws)
        complex_normal(rng, self.noise.shape, powers.noise_power, out=self.noise, scratch=draws)

    def covariances(self, a: np.ndarray) -> np.ndarray:
        """`sample_covariance` of the snapshots y = a*s + n of the steering vector `a`, shape (trials, M, M).

        numpy's stacked matmul runs one product per trial, so the chunks give
        the bits of one whole-stack computation.
        """
        trials, m, t = self.noise.shape
        step = self.scratch.shape[1]
        r = np.empty((trials, m, m), dtype=complex)
        for k0 in range(0, trials, step):
            rows = slice(k0, min(k0 + step, trials))
            part, conj = self.scratch[:, : rows.stop - k0]
            np.multiply(a[:, np.newaxis], self.sources[rows, np.newaxis, :], out=part)
            part += self.noise[rows]
            np.conjugate(part, out=conj)
            np.matmul(part, conj.swapaxes(-1, -2), out=r[rows])
        r /= t
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
