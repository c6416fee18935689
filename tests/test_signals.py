"""Snapshot generation and sample covariance tests.

Statistical expectations (variances, convergence rates) use seeded streams
so every run sees the same draws; algebraic identities are checked exactly.
"""

import numpy as np
import pytest

from isacdeploy import signals
from isacdeploy.geometry import Scenario, deployment_layout, midpoint_baseline, steering_vector
from isacdeploy.signals import (
    PowerLevels,
    SnapshotWorkspace,
    complex_normal,
    generate_snapshots,
    sample_covariance,
    snr_to_powers,
)


@pytest.fixture()
def reference_steering():
    s = Scenario()
    layout = deployment_layout(midpoint_baseline(s), s)
    return steering_vector(layout, (1.0, 2.0), s.wavelength)


class TestPowers:
    def test_zero_db(self):
        p = snr_to_powers(0.0)
        assert p.signal_power == 1.0 and p.noise_power == 1.0

    def test_plus_ten_db(self):
        p = snr_to_powers(10.0)
        assert p.signal_power == pytest.approx(10.0, rel=1e-15)
        assert p.noise_power == 1.0

    def test_minus_ten_db(self):
        p = snr_to_powers(-10.0)
        assert p.signal_power == pytest.approx(0.1, rel=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            snr_to_powers(float("nan"))

    def test_rejects_a_level_whose_power_overflows(self, reference_steering):
        # At the limit the sample covariance and its spectrum stay finite.
        powers = snr_to_powers(2889.8)
        cov = sample_covariance(generate_snapshots(reference_steering, powers, 200, np.random.default_rng(3)))
        assert np.all(np.isfinite(cov)) and np.all(np.isfinite(np.linalg.eigvalsh(cov)))
        # 3070 dB has a finite power but overflowed the covariance; 3082.6 dB overflowed the power.
        for snr_db in (2890.0, 3070.0, 3082.6, 4000, np.float64(4000.0)):
            with pytest.raises(ValueError, match="snr_db must be at most 2889.9 dB"):
                snr_to_powers(snr_db)

    def test_power_levels_reject_negative(self):
        with pytest.raises(ValueError):
            PowerLevels(-1.0, 1.0)
        with pytest.raises(ValueError):
            PowerLevels(1.0, -1e-9)


class TestComplexNormal:
    def test_variance_split_between_parts(self):
        z = complex_normal(np.random.default_rng(0), (200_000,), 4.0)
        assert np.var(z.real) == pytest.approx(2.0, rel=0.02)
        assert np.var(z.imag) == pytest.approx(2.0, rel=0.02)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(4.0, rel=0.02)

    def test_zero_variance_is_exact_zero(self):
        z = complex_normal(np.random.default_rng(0), (16,), 0.0)
        assert np.array_equal(z, np.zeros(16, dtype=complex))

    def test_circular_symmetry_no_pseudo_covariance(self):
        z = complex_normal(np.random.default_rng(1), (200_000,), 1.0)
        # E[z^2] = 0 for circular symmetry (unlike E[|z|^2] = 1)
        assert abs(np.mean(z**2)) < 0.01

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            complex_normal(np.random.default_rng(0), (4,), -1.0)

    @pytest.mark.parametrize("variance", [0.1, 1.0, 10.0])
    def test_in_place_build_matches_the_complex_temporaries(self, variance):
        parts = np.random.default_rng(6).standard_normal((2, 5, 12, 40))
        want = np.sqrt(variance / 2.0) * (parts[0] + 1j * parts[1])
        assert np.array_equal(complex_normal(np.random.default_rng(6), (5, 12, 40), variance), want)


    def test_reused_buffers_match_a_fresh_call(self):
        # a NaN-filled out and a scratch shorter than one half draw the same samples
        want = complex_normal(np.random.default_rng(6), (5, 12, 40), 2.0)
        for size in (1, 7, 1200, 2400, 10_000):
            out = np.full((5, 12, 40), np.nan, dtype=complex)
            got = complex_normal(np.random.default_rng(6), (5, 12, 40), 2.0, out=out, scratch=np.full(size, np.nan))
            assert got is out
            assert np.array_equal(got, want)

    def test_zero_variance_fills_the_output_and_draws_nothing(self):
        rng = np.random.default_rng(11)
        out = np.full((3, 4), np.nan, dtype=complex)
        assert complex_normal(rng, (3, 4), 0.0, out=out) is out
        assert np.array_equal(out, np.zeros((3, 4), dtype=complex))
        assert rng.standard_normal() == np.random.default_rng(11).standard_normal()

    def test_rejects_an_output_it_cannot_fill(self):
        rng = np.random.default_rng(0)
        for out in (np.empty((4, 3), dtype=complex), np.empty((3, 4)), np.empty((4, 3), dtype=complex).T):
            with pytest.raises(ValueError, match="C-contiguous complex array of shape"):
                complex_normal(rng, (3, 4), 1.0, out=out)


class TestNumpyStream:
    """The stream identities the in-place draws rely on. If a numpy release
    breaks one, these fail instead of every Monte Carlo map changing silently."""

    def test_out_draw_equals_a_shaped_draw(self):
        buf = np.empty((4, 12, 50))
        np.random.default_rng(21).standard_normal(out=buf)
        assert np.array_equal(buf, np.random.default_rng(21).standard_normal((4, 12, 50)))

    def test_two_half_draws_equal_one_stacked_draw(self):
        rng = np.random.default_rng(22)
        real, imag = np.empty((4, 12, 50)), np.empty((4, 12, 50))
        rng.standard_normal(out=real)
        rng.standard_normal(out=imag)
        want = np.random.default_rng(22).standard_normal((2, 4, 12, 50))
        assert np.array_equal(real, want[0]) and np.array_equal(imag, want[1])

    def test_consecutive_piece_draws_equal_one_draw(self):
        want = np.random.default_rng(23).standard_normal(2400)
        for piece in (1, 7, 1000, 2399):
            rng, got = np.random.default_rng(23), np.empty(2400)
            for i0 in range(0, got.size, piece):
                rng.standard_normal(out=got[i0 : i0 + piece])
            assert np.array_equal(got, want)

class TestSnapshots:
    def test_shape_and_determinism(self, reference_steering):
        p = snr_to_powers(0.0)
        y1 = generate_snapshots(reference_steering, p, 64, np.random.default_rng(7))
        y2 = generate_snapshots(reference_steering, p, 64, np.random.default_rng(7))
        assert y1.shape == (reference_steering.size, 64)
        assert np.array_equal(y1, y2)

    def test_noiseless_columns_proportional_to_steering(self, reference_steering):
        a = reference_steering
        y = generate_snapshots(a, PowerLevels(1.0, 0.0), 32, np.random.default_rng(3))
        # remove the component along a; nothing should remain (unit-norm a)
        residual = y - a[:, None] * (a.conj() @ y)[None, :]
        assert np.max(np.abs(residual)) < 1e-12

    def test_pure_noise_per_element_variance(self, reference_steering):
        y = generate_snapshots(reference_steering, PowerLevels(0.0, 1.0), 100_000, np.random.default_rng(5))
        per_element = np.mean(np.abs(y) ** 2, axis=1)
        assert np.allclose(per_element, 1.0, rtol=0.05)

    def test_column_power_accounting(self, reference_steering):
        nj = reference_steering.size
        y = generate_snapshots(reference_steering, PowerLevels(1.0, 1.0), 100_000, np.random.default_rng(9))
        col_power = np.mean(np.sum(np.abs(y) ** 2, axis=0))
        assert col_power == pytest.approx(1.0 + nj, rel=0.03)

    def test_one_trial_batch_equals_the_unbatched_matrix(self, reference_steering):
        for powers in (snr_to_powers(0.0), PowerLevels(1.0, 0.0), PowerLevels(0.0, 1.0)):
            y = generate_snapshots(reference_steering, powers, 64, np.random.default_rng(8))
            batch = generate_snapshots(reference_steering, powers, 64, np.random.default_rng(8), trials=1)
            assert batch.shape == (1,) + y.shape
            assert np.array_equal(batch[0], y)
            assert np.array_equal(sample_covariance(batch)[0], sample_covariance(y))

    def test_trials_stack_the_unbatched_layout(self, reference_steering):
        # all trials' sources are drawn first, then all trials' noise blocks
        a, powers = reference_steering, PowerLevels(2.0, 0.5)
        batch = generate_snapshots(a, powers, 16, np.random.default_rng(10), trials=3)
        rng = np.random.default_rng(10)
        source_parts = rng.standard_normal((2, 3, 16))
        noise_parts = rng.standard_normal((2, 3, a.size, 16))
        s = np.sqrt(powers.signal_power / 2.0) * (source_parts[0] + 1j * source_parts[1])
        noise = np.sqrt(powers.noise_power / 2.0) * (noise_parts[0] + 1j * noise_parts[1])
        covs = sample_covariance(batch)
        for k in range(3):
            assert np.array_equal(batch[k], a[:, None] * s[k][None, :] + noise[k])
            assert np.array_equal(covs[k], sample_covariance(batch[k]))

    def test_rejects_bad_arguments(self, reference_steering):
        with pytest.raises(ValueError):
            generate_snapshots(reference_steering, snr_to_powers(0.0), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_snapshots(reference_steering, snr_to_powers(0.0), 4, np.random.default_rng(0), trials=0)
        with pytest.raises(ValueError):
            generate_snapshots(np.ones((2, 2)), snr_to_powers(0.0), 4, np.random.default_rng(0))


    @pytest.mark.parametrize("chunk_bytes", [1, 3 * 12 * 16 * 16, 1 << 30])
    def test_trial_chunks_give_the_whole_stack_bits(self, reference_steering, monkeypatch, chunk_bytes):
        # one trial, three trials or the whole stack per chunk of y = a·s + n and of its conjugate,
        # against the covariances of n + a·s of one whole-stack draw
        powers = PowerLevels(2.0, 0.5)
        rng = np.random.default_rng(12)
        sources = complex_normal(rng, (7, 16), 2.0)
        want = complex_normal(rng, (7, reference_steering.size, 16), 0.5)
        want += reference_steering[:, np.newaxis] * sources[:, np.newaxis, :]
        r = (want @ want.conj().swapaxes(-1, -2)) / 16
        want_covs = 0.5 * (r + r.conj().swapaxes(-1, -2))
        monkeypatch.setattr(signals, "CHUNK_BYTES", chunk_bytes)
        work = SnapshotWorkspace(7, reference_steering.size, 16)
        assert work.scratch.shape[:2] == (2, {1: 1, 3 * 12 * 16 * 16: 3, 1 << 30: 7}[chunk_bytes])
        work.draw(powers, np.random.default_rng(12))
        assert np.array_equal(work.covariances(reference_steering), want_covs)
        assert np.array_equal(sample_covariance(want), want_covs)
        assert np.array_equal(generate_snapshots(reference_steering, powers, 16, np.random.default_rng(12), trials=7), want)

    def test_a_reused_workspace_keeps_nothing_from_the_last_draw(self, reference_steering):
        work = SnapshotWorkspace(3, reference_steering.size, 16)
        for powers in (snr_to_powers(0.0), PowerLevels(1.0, 0.0), PowerLevels(0.0, 1.0)):
            for buffer in (work.noise, work.sources, work.scratch):
                buffer.fill(np.nan)
            want = generate_snapshots(reference_steering, powers, 16, np.random.default_rng(13), trials=3)
            work.draw(powers, np.random.default_rng(13))
            assert np.array_equal(work.covariances(reference_steering), sample_covariance(want))

    def test_one_draw_serves_every_steering_vector(self, reference_steering):
        # y = a*s + n from the same s and n, in any order of the vectors, as each vector's own draw
        others = [reference_steering[::-1].copy(), np.roll(reference_steering, 5), reference_steering]
        powers = snr_to_powers(-3.0)
        work = SnapshotWorkspace(5, reference_steering.size, 16)
        work.draw(powers, np.random.default_rng(14))
        for a in others:
            want = generate_snapshots(a, powers, 16, np.random.default_rng(14), trials=5)
            assert np.array_equal(work.covariances(a), sample_covariance(want))

class TestSampleCovariance:
    def test_single_snapshot_outer_product_exact(self, reference_steering):
        # exact up to the last ulp: the matmul route uses FMA, np.outer does not,
        # so the same products may round one bit apart
        y = generate_snapshots(reference_steering, snr_to_powers(0.0), 1, np.random.default_rng(2))
        r = sample_covariance(y)
        want = np.outer(y[:, 0], y[:, 0].conj())
        assert np.allclose(r, want, rtol=0.0, atol=1e-15)
        assert np.array_equal(r, r.conj().T)

    def test_constant_noiseless_source_rank_one(self, reference_steering):
        a = reference_steering
        e = 2.25
        y = np.repeat((np.sqrt(e) * a)[:, None], 4, axis=1)
        r = sample_covariance(y)
        assert np.allclose(r, e * np.outer(a, a.conj()), atol=1e-15)

    def test_hermitian_and_psd_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m, t = int(rng.integers(2, 9)), int(rng.integers(1, 30))
            y = rng.standard_normal((m, t)) + 1j * rng.standard_normal((m, t))
            r = sample_covariance(y)
            assert np.array_equal(r, r.conj().T)
            evals = np.linalg.eigvalsh(r)
            assert np.all(evals >= -1e-10 * np.trace(r).real)

    def test_trace_equals_mean_column_power(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
        r = sample_covariance(y)
        want = np.mean(np.sum(np.abs(y) ** 2, axis=0))
        assert np.trace(r).real == pytest.approx(want, rel=1e-12)

    def test_converges_to_population_covariance(self, reference_steering):
        a = reference_steering
        population = np.outer(a, a.conj()) + np.eye(a.size)
        y = generate_snapshots(a, PowerLevels(1.0, 1.0), 100_000, np.random.default_rng(17))
        err = np.linalg.norm(sample_covariance(y) - population) / np.linalg.norm(population)
        assert err < 0.05

    def test_error_shrinks_with_snapshot_count(self, reference_steering):
        a = reference_steering
        population = np.outer(a, a.conj()) + np.eye(a.size)
        errs = []
        for t in (100, 1_000, 10_000, 100_000):
            y = generate_snapshots(a, PowerLevels(1.0, 1.0), t, np.random.default_rng(23))
            errs.append(np.linalg.norm(sample_covariance(y) - population))
        assert errs == sorted(errs, reverse=True)

    def test_any_leading_shape_gives_each_matrix_its_own_covariance(self):
        rng = np.random.default_rng(19)
        y = rng.standard_normal((2, 3, 6, 40)) + 1j * rng.standard_normal((2, 3, 6, 40))
        r = sample_covariance(y)
        assert r.shape == (2, 3, 6, 6)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(r[i, j], sample_covariance(y[i, j]))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            sample_covariance(np.empty((4, 0), dtype=complex))
