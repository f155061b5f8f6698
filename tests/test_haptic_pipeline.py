"""Haptic preprocessing: normalization, decimation, resampling, PCA, assembly."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hapticnet import synth
from hapticnet.errors import InvalidInputError
from hapticnet.haptic import (
    BASE_CHANNELS,
    DECIMATION,
    ELECTRODES,
    EPS,
    FINGERS,
    MIN_BLOCK_LEN,
    OFFSETS,
    RESAMPLE_LEN,
    HapticTrial,
    InstanceMatrix,
    PcaModel,
    assemble_instance,
    augment,
    decimate_pac,
    pca_fit,
    pca_project,
    _subsample_index,
    block_problems,
    zscore_normalize,
)

from oracles import reference_instance, reference_zscore_normalize, subsample, svd_pca


def synth_channels(rng, base_len=340):
    """One (finger, ep) channel map with plausible lengths."""
    chans = {"P_AC": rng.standard_normal(DECIMATION * base_len + int(rng.integers(-5, 6)))}
    for name in BASE_CHANNELS[1:]:
        chans[name] = rng.standard_normal(base_len) + rng.uniform(-2, 2)
    latent = rng.standard_normal((base_len, 4))
    mix = rng.standard_normal((4, 19))
    panel = latent @ mix + 0.01 * rng.standard_normal((base_len, 19))
    for i, name in enumerate(ELECTRODES):
        chans[name] = panel[:, i]
    return chans


def synth_trial(rng, object_id="obj0", trial_index=0, base_len=340):
    signals = {}
    for finger in (0, 1):
        for ep in EPS:
            signals[(finger, ep)] = synth_channels(rng, base_len)
    return HapticTrial(object_id=object_id, trial_index=trial_index, signals=signals)


def fit_all_eps(rng):
    pca = {}
    for ep in EPS:
        latent = rng.standard_normal((200, 4))
        mix = rng.standard_normal((4, 19))
        pca[ep] = pca_fit(latent @ mix + 0.01 * rng.standard_normal((200, 19)))
    return pca


def electrode_samples(trials, ep):
    """(N, 19) z-scored electrode samples of one EP over trials and fingers."""
    return np.concatenate([
        np.stack([zscore_normalize(t.signals[(f, ep)][e]) for e in ELECTRODES], axis=1)
        for t in trials for f in FINGERS])


def synth_trials(config):
    """Every trial of a synth config."""
    ids, z, _ = synth.object_factors(config)
    return [synth.make_trial(config, o, zo, t)
            for o, zo in zip(ids, z) for t in range(config.n_trials)]


def synth_set(config):
    """Trials of a synth config, with PCA fitted on all of their electrodes."""
    trials = synth_trials(config)
    return trials, {ep: pca_fit(electrode_samples(trials, ep)) for ep in EPS}


class TestZscore:
    def test_hand_arithmetic(self):
        out = zscore_normalize(np.array([1.0, 2.0, 3.0]))
        root = np.sqrt(2.0 / 3.0)  # population sigma of {1,2,3}
        assert np.allclose(out, [-1.0 / root, 0.0, 1.0 / root], atol=1e-12)
        assert out[1] == 0.0

    def test_constant_series_becomes_zeros(self):
        assert not zscore_normalize(np.array([5.0, 5.0, 5.0])).any()
        # constants whose mean rounds off them, leaving a std of ~1e-17
        for value in (0.1, 2.7, -7.77):
            assert not zscore_normalize(np.full(340, value)).any()

    @pytest.mark.parametrize("length", [1, 2, 7, 128, 129, 3620, 100_000])
    def test_constants_of_any_magnitude_become_zeros(self, length):
        # from the smallest subnormal to near overflow, where the sum or the
        # squares of the centred samples are inf; every output is +0.0
        magnitudes = (5e-324, 1e-320, 2.2e-308, 1e-300, 1e-162, 0.1, 2.7, 1e154, 1e300, 1.7e308)
        values = [sign * m for m in magnitudes for sign in (1.0, -1.0)] + [0.0, -0.0]
        rows = np.repeat(np.array(values)[:, None], length, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            for row in rows:
                out = zscore_normalize(row)
                assert out.shape == (length,) and not out.view(np.int64).any(), row[0]
            out = zscore_normalize(rows)
        assert out.shape == rows.shape and not out.view(np.int64).any()

    @pytest.mark.parametrize("shape", [(3, 7), (22, 341), (4, 3620), (2, 9001)])
    def test_rows_match_1d_calls(self, shape):
        rng = np.random.default_rng(shape[1])
        rows = rng.standard_normal(shape) * rng.uniform(0.1, 50.0, (shape[0], 1))
        rows += rng.uniform(-9.0, 9.0, (shape[0], 1))
        rows[1] = 0.1
        out = zscore_normalize(rows)
        assert out.shape == shape
        for got, row in zip(out, rows):
            assert np.array_equal(got, zscore_normalize(row))
        assert not out[1].any()

    @settings(max_examples=60)
    @given(rows=st.integers(1, 4), length=st.integers(1, 4000),
           scale=st.sampled_from([1e-300, 1e-100, 1e-8, 1.0, 3e4, 1e100, 1e154, 1e300]),
           kinds=st.lists(st.sampled_from(["noise", "offset", "constant", "ulp", "nan", "inf"]),
                          min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=4, length=3620, scale=1e300, kinds=["noise", "offset", "constant", "ulp"],
             seed=0)
    @example(rows=4, length=4000, scale=1e-300, kinds=["offset", "ulp", "nan", "inf"], seed=1)
    def test_bitwise_the_std_formula(self, rows, length, scale, kinds, seed):
        rng = np.random.default_rng(seed)
        series = np.empty((rows, length))
        for row, kind in zip(series, kinds):
            value = rng.uniform(-9.0, 9.0) * scale
            if kind == "noise":
                row[:] = rng.standard_normal(length) * scale
            elif kind == "offset":  # a large mean over a small spread
                row[:] = value + rng.standard_normal(length) * scale * 1e-6
            elif kind == "constant":
                row[:] = value
            elif kind == "ulp":  # one ulp apart, so the mean can round off every sample
                row[:] = value
                row[rng.integers(0, length)] = np.nextafter(value, np.inf)
            else:  # noise with one sample that is not finite
                row[:] = rng.standard_normal(length) * scale
                row[rng.integers(0, length)] = np.nan if kind == "nan" else -np.inf
        # at the largest scales the squares overflow, and a non-finite
        # sample makes the centring invalid
        with np.errstate(over="ignore", invalid="ignore"):
            for s in (series, series[0]):
                expected = reference_zscore_normalize(s)
                got = zscore_normalize(s)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("series, message", [
        (np.array(["a", "b"]), "dtype <U1"),
        ([[1.0, 2.0], [3.0]], "type list"),
        ("ab", "type str"),
    ])
    def test_non_numeric_rejected(self, series, message):
        with pytest.raises(InvalidInputError, match=f"cannot normalize a series of {message}"):
            zscore_normalize(series)

    def test_empty_rejected(self):
        for empty in (np.array([]), np.zeros((3, 0)), np.zeros((0, 5)), np.float64(1.0)):
            with pytest.raises(InvalidInputError, match="empty"):
                zscore_normalize(empty)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(64) * 3 + 1
        once = zscore_normalize(s)
        assert np.allclose(zscore_normalize(once), once, rtol=0, atol=1e-12)

    def test_output_moments(self):
        out = zscore_normalize(np.random.default_rng(1).uniform(5, 9, 200))
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-12


# each public function's action, as its input error names it, the function,
# and the shape of an input it takes
REAL_INPUT = {
    "zscore_normalize": ("normalize a series", zscore_normalize, (100,)),
    "decimate_pac": ("decimate a series", decimate_pac, (44,)),
    "pca_fit": ("fit a PCA to samples", pca_fit, (30, 19)),
    "pca_project": ("project a vector",
                    lambda v: pca_project(pca_fit(np.eye(19)), v), (19,)),
}


class TestRealInput:
    """Every public function converts its input through one helper: input
    that is not real numbers, complex included, raises InvalidInputError
    naming its dtype instead of a bare ValueError or a dropped imaginary part."""

    @pytest.mark.parametrize("name", REAL_INPUT)
    @pytest.mark.parametrize("case, dtype, reason", [
        ("strings", "<U1", "could not convert string to float"),
        ("complex", "complex128", "complex values have an imaginary part"),
    ])
    def test_rejected_naming_the_dtype(self, name, case, dtype, reason):
        action, call, shape = REAL_INPUT[name]
        rng = np.random.default_rng(33)
        values = np.full(shape, "a") if case == "strings" else (
            rng.standard_normal(shape) * (1 + 1j))
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"cannot {action} of dtype {dtype}: {reason}")):
            call(values)

    @pytest.mark.parametrize("name", REAL_INPUT)
    def test_integers_convert(self, name):
        _, call, shape = REAL_INPUT[name]
        values = np.random.default_rng(34).integers(-9, 9, shape)
        got, expected = call(values), call(values.astype(np.float64))
        if name == "pca_fit":
            got, expected = got.components, expected.components
        assert np.array_equal(got, expected)


class TestDecimate:
    def test_constant_windows(self):
        assert np.array_equal(decimate_pac(np.full(44, 3.0)), [3.0, 3.0])

    def test_ramp_window_means(self):
        assert np.array_equal(decimate_pac(np.arange(44.0)), [10.5, 32.5])

    def test_partial_window_dropped(self):
        assert decimate_pac(np.arange(45.0)).shape == (2,)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            decimate_pac(np.arange(21.0))

    @pytest.mark.parametrize("shape", [(2, 44), (1, 44), (44, 1), ()])
    def test_a_series_that_is_not_1d_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=re.escape(f"series of shape {shape}")):
            decimate_pac(np.ones(shape))

    @settings(max_examples=60)
    @given(length=st.integers(DECIMATION, 5000),
           scale=st.sampled_from([1e-100, 1e-8, 1.0, 3e4, 1e100]),
           offset=st.sampled_from([0.0, 1.0, -7.7e3]), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_window_means(self, length, scale, offset, seed):
        s = np.random.default_rng(seed).standard_normal(length) * scale + offset * scale
        windows = s[:length // DECIMATION * DECIMATION].reshape(-1, DECIMATION)
        expected = windows.mean(axis=1)
        assert np.array_equal(decimate_pac(s).view(np.int64), expected.view(np.int64))


class TestResample:
    """The index rule, row by row of ``_subsample_index``'s tables, and the
    offset check of ``assemble_instance``, the one entry that takes an offset."""

    def test_last_offset_of_the_shortest_block_takes_every_sample(self):
        assert np.array_equal(_subsample_index(MIN_BLOCK_LEN)[-1],
                              np.arange(max(OFFSETS), MIN_BLOCK_LEN))

    def test_stride_two_indices(self):
        assert np.array_equal(_subsample_index(299)[0], np.arange(0, 299, 2))

    def test_offsets_pick_different_samples(self):
        table = _subsample_index(400)
        for a in range(5):
            for b in range(a + 1, 5):
                assert np.any(table[a] != table[b])

    def test_endpoint_always_included(self):
        for o, row in zip(OFFSETS, _subsample_index(200)):
            assert row[-1] == 199
            assert row[0] == o

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError, match="series of length 153 too short"):
            _subsample_index(MIN_BLOCK_LEN - 1)

    @pytest.mark.parametrize("offset", [2.5, 2.0, True, -1, 5, "2", None])
    def test_offset_not_in_offsets_rejected(self, offset):
        rng = np.random.default_rng(27)
        trial, pca = synth_trial(rng), fit_all_eps(rng)
        with pytest.raises(InvalidInputError, match=re.escape(
                f"offset must be an integer of {OFFSETS}, got {offset!r}")):
            assemble_instance(trial, 0, offset, pca)

    def test_numpy_integer_offset_served(self):
        rng = np.random.default_rng(28)
        trial, pca = synth_trial(rng), fit_all_eps(rng)
        inst = assemble_instance(trial, 0, np.int64(2), pca)
        assert inst.offset == 2 and type(inst.offset) is int
        assert np.array_equal(inst.values, assemble_instance(trial, 0, 2, pca).values)

    @settings(max_examples=60)
    @given(n=st.integers(2, 2000))
    def test_indices_are_the_scalar_formula(self, n):
        if n < MIN_BLOCK_LEN:
            with pytest.raises(InvalidInputError, match=f"length {n} too short"):
                _subsample_index(n)
            return
        table = _subsample_index(n)
        assert table.shape == (len(OFFSETS), RESAMPLE_LEN)
        for o, row in zip(OFFSETS, table):
            span = n - 1 - o
            assert row.tolist() == [o + round(j * span / (RESAMPLE_LEN - 1))
                                    for j in range(RESAMPLE_LEN)]


class TestSubsampleIndexCache:
    """The index tables are cached per series length; a table is read-only
    and no instance shares its memory."""

    def test_cached_table_is_read_only(self):
        table = _subsample_index(400)
        assert table is _subsample_index(400)
        assert table.shape == (len(OFFSETS), RESAMPLE_LEN)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        assert np.array_equal(table[:, 0], OFFSETS)

    def test_instances_share_no_memory_with_the_cache(self):
        rng = np.random.default_rng(32)
        trial, pca = synth_trial(rng), fit_all_eps(rng)
        first = augment(trial, pca)
        lengths = {len(c["P_DC"]) for c in trial.signals.values()} | {
            len(c["P_AC"]) // DECIMATION for c in trial.signals.values()}
        tables = [_subsample_index(n) for n in lengths]
        for inst in first:
            assert not any(np.shares_memory(inst.values, t) for t in tables)
        kept = [inst.values.copy() for inst in first]
        for inst in first:
            inst.values[:] = -1.0  # an instance is the caller's to write
        assert all(np.array_equal(a.values, b) for a, b in zip(augment(trial, pca), kept))

    def test_errors_are_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="series of length 152 too short"):
                _subsample_index(152)

    def test_augmenting_a_trial_again_builds_no_table(self):
        rng = np.random.default_rng(31)
        trial, pca = synth_trial(rng, base_len=337), fit_all_eps(rng)
        first = augment(trial, pca)
        misses = _subsample_index.cache_info().misses
        again = augment(trial, pca)
        assert _subsample_index.cache_info().misses == misses
        assert all(np.array_equal(a.values, b.values) for a, b in zip(first, again))


class TestPca:
    def test_rank_one_data(self):
        rng = np.random.default_rng(4)
        direction = rng.standard_normal(19)
        coords = rng.standard_normal(80)
        data = 5.0 + np.outer(coords, direction)
        with pytest.raises(InvalidInputError, match="rank 1;"):
            pca_fit(data)

    def test_rank_deficit_names_rank(self):
        rng = np.random.default_rng(5)
        rank3 = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 19))
        with pytest.raises(InvalidInputError, match="rank 3;"):
            pca_fit(rank3)
        with pytest.raises(InvalidInputError, match="rank 0;"):
            pca_fit(np.full((40, 19), 2.5))

    def test_noiseless_synth_electrodes_fit(self):
        trials, pca = synth_set(replace(synth.two_cue_config(n_objects=4, n_trials=1), noise=0.0))
        for ep in EPS:
            model = pca[ep]
            _, comps, ratios = svd_pca(electrode_samples(trials, ep), k=4)
            assert np.allclose(model.components, comps, rtol=0, atol=1e-8)
            assert np.allclose(model.explained_variance_ratio, ratios, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eigendecomposition_oracle(self, seed):
        # the SVD of the centred samples: the eigendecomposition of their
        # Gram matrix without forming it, so not pca_fit's own method
        data = np.random.default_rng(seed).standard_normal((50, 19))
        model = pca_fit(data)
        mean, comps, ratios = svd_pca(data, k=4)
        assert np.allclose(model.mean, mean, rtol=0, atol=1e-12)
        assert np.allclose(model.components, comps, rtol=0, atol=1e-8)
        assert np.allclose(model.explained_variance_ratio, ratios, rtol=0, atol=1e-8)

    def test_four_latent_generator_hits_95_percent(self):
        # electrodes driven by a 4-dim latent with 1% noise: the top four
        # components must explain at least 95% of the variance
        for seed in range(10):
            rng = np.random.default_rng(seed)
            latent = rng.standard_normal((400, 4))
            mix = rng.standard_normal((4, 19))
            clean = latent @ mix
            data = clean + 0.01 * clean.std() * rng.standard_normal(clean.shape)
            model = pca_fit(data)
            assert model.explained_variance_ratio.sum() >= 0.95

    def test_orthonormal_columns(self):
        data = np.random.default_rng(8).standard_normal((60, 19))
        c = pca_fit(data).components
        assert np.allclose(c.T @ c, np.eye(4), rtol=0, atol=1e-9)

    def test_ratios_non_increasing_and_bounded(self):
        for seed in range(8):
            data = np.random.default_rng(seed).standard_normal((40, 19))
            r = pca_fit(data).explained_variance_ratio
            assert np.all(np.diff(r) <= 1e-15)
            assert r.sum() <= 1.0 + 1e-12

    def test_projection_is_a_contraction(self):
        rng = np.random.default_rng(9)
        model = pca_fit(rng.standard_normal((50, 19)))
        for _ in range(20):
            a, b = rng.standard_normal((2, 19))
            pa, pb = pca_project(model, a), pca_project(model, b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            pca_fit(np.zeros((3, 19)))

    @pytest.mark.parametrize("shape", [(19,), (4, 5, 19)])
    def test_samples_that_are_not_2d_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=re.escape(f"2-D, got shape {shape}")):
            pca_fit(np.zeros(shape))

    def test_projection_of_another_dimension_rejected(self):
        model = pca_fit(np.random.default_rng(10).standard_normal((50, 19)))
        with pytest.raises(InvalidInputError, match="vector dim 18 != model dim 19"):
            pca_project(model, np.zeros((3, 18)))


class TestPcaAgainstSvd:
    """The Gram-matrix fit against the SVD of the centred samples."""

    @pytest.mark.parametrize("n_objects", [5, 17])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_synth_electrodes_match_the_svd_form(self, n_objects, seed):
        trials = synth_trials(synth.two_cue_config(n_objects=n_objects, seed=seed))
        for ep in EPS:
            samples = electrode_samples(trials, ep)
            model = pca_fit(samples)
            mean, comps, ratios = svd_pca(samples, k=4)
            assert np.array_equal(model.mean, mean)
            signs = np.sign(np.sum(model.components * comps, axis=0))
            assert np.abs(model.components - comps * signs).max() <= 1e-12, ep
            assert np.abs(model.explained_variance_ratio - ratios).max() <= 1e-14, ep

    def test_offset_rank_3_data_has_no_4th_component(self):
        # the SVD form fits a 4th component of pure noise here; on the
        # squared scale that noise is below the rank tolerance
        r = np.random.default_rng(4)
        n = r.integers(50, 40000)
        rank = r.integers(0, 4)
        x = (r.standard_normal((n, rank)) @ r.standard_normal((rank, 19))
             * 10 ** r.uniform(-3, 3) + r.uniform(-1e3, 1e3, 19))
        assert (n, rank) == (29071, 3)
        assert svd_pca(x, k=4)[2][3] < 1e-15
        with pytest.raises(InvalidInputError, match="rank 3;"):
            pca_fit(x)

    @pytest.mark.parametrize("first, second", [
        (np.nan, np.nan), (np.inf, np.inf), (-np.inf, np.inf), (np.inf, 1e308)])
    def test_non_finite_sample_named_by_row_and_column(self, first, second):
        x = np.random.default_rng(11).standard_normal((30, 19))
        x[17, 5] = first
        x[23, 2] = second
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"electrode sample row 17 column 5 is {first}, not finite")):
            pca_fit(x)

    @pytest.mark.parametrize("samples, kind", [
        (np.full((5, 19), "a"), "dtype <U1"),
        (np.full((5, 19), "a", dtype=object), "dtype object"),
        ([[{}] * 19] * 5, "type list"),
    ])
    def test_non_numeric_samples_rejected(self, samples, kind):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"cannot fit a PCA to samples of {kind}: ")):
            pca_fit(samples)

    @pytest.mark.parametrize("x", [
        # the Gram matrix overflows
        np.random.default_rng(12).standard_normal((30, 19)) * 1e200,
        # every entry of the Gram matrix is finite, the sum of its eigenvalues is not
        np.random.default_rng(3).standard_normal((50, 19)) * 1e153,
        # the column sums overflow
        np.full((30, 19), 1.7e308),
    ])
    def test_samples_whose_squares_overflow_rejected(self, x):
        with pytest.raises(InvalidInputError, match="too large: their squares overflow"):
            pca_fit(x)


_FIT_DIGESTS = """
import hashlib, sys
import numpy as np
from hapticnet.haptic import pca_fit
samples = np.load(sys.argv[1])
for key in sorted(samples.files):
    model = pca_fit(samples[key])
    digest = hashlib.sha256()
    for a in (model.mean, model.components, model.explained_variance_ratio):
        digest.update(a.tobytes())
    print(key, digest.hexdigest())
"""


def test_pca_fit_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # about 50k rows per EP; the variable is set only in each child's environment
    trials = synth_trials(synth.two_cue_config(n_objects=48, n_trials=3))
    path = tmp_path / "electrodes.npz"
    np.savez(path, **{ep: electrode_samples(trials, ep) for ep in EPS})
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        done = subprocess.run([sys.executable, "-c", _FIT_DIGESTS, str(path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == len(EPS)
    assert outputs[0] == outputs[1]


class TestAssemble:
    def test_shape_and_finiteness(self):
        rng = np.random.default_rng(10)
        trial = synth_trial(rng)
        pca = fit_all_eps(rng)
        inst = assemble_instance(trial, finger=0, offset=0, pca=pca)
        assert inst.values.shape == (32, 150)
        assert np.all(np.isfinite(inst.values))

    def test_fingers_differ(self):
        rng = np.random.default_rng(11)
        trial = synth_trial(rng)
        pca = fit_all_eps(rng)
        a = assemble_instance(trial, 0, 0, pca)
        b = assemble_instance(trial, 1, 0, pca)
        assert np.any(a.values != b.values)

    def test_matches_hand_composition(self):
        rng = np.random.default_rng(12)
        trial = synth_trial(rng)
        pca = fit_all_eps(rng)
        inst = assemble_instance(trial, 0, 2, pca)
        # recompute the squeeze block by composing the ops by hand
        chans = trial.channels(0, "squeeze")
        pac = subsample(decimate_pac(zscore_normalize(chans["P_AC"])), 2)
        assert np.array_equal(inst.values[0], pac)
        pdc = subsample(zscore_normalize(chans["P_DC"]), 2)
        assert np.array_equal(inst.values[1], pdc)
        elec = np.stack([zscore_normalize(chans[e]) for e in ELECTRODES], axis=1)
        pc1 = subsample(pca_project(pca["squeeze"], elec)[:, 0], 2)
        assert np.array_equal(inst.values[4], pc1)
        # hold block starts at row 8
        hold_pac = subsample(
            decimate_pac(zscore_normalize(trial.channels(0, "hold")["P_AC"])), 2)
        assert np.array_equal(inst.values[8], hold_pac)

    def test_missing_ep_is_named(self):
        rng = np.random.default_rng(13)
        trial = synth_trial(rng)
        del trial.signals[(0, "hold")]
        with pytest.raises(InvalidInputError, match="hold"):
            assemble_instance(trial, 0, 0, pca=fit_all_eps(rng))

    def test_missing_channel_is_named(self):
        rng = np.random.default_rng(14)
        trial = synth_trial(rng)
        del trial.signals[(0, "squeeze")]["T_AC"]
        with pytest.raises(InvalidInputError, match="T_AC"):
            assemble_instance(trial, 0, 0, pca=fit_all_eps(rng))

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        trial = synth_trial(rng)
        pca = fit_all_eps(rng)
        a = assemble_instance(trial, 1, 3, pca)
        b = assemble_instance(trial, 1, 3, pca)
        assert np.array_equal(a.values, b.values)

    def test_zscored_channels_have_small_mean_after_resampling(self):
        rng = np.random.default_rng(16)
        trial = synth_trial(rng)
        inst = assemble_instance(trial, 0, 0, fit_all_eps(rng))
        base_rows = [ep * 8 + c for ep in range(4) for c in range(4)]
        assert np.all(np.abs(inst.values[base_rows].mean(axis=1)) < 0.5)


def same_bits(a, b):
    """Equal bit for bit: unlike ``np.array_equal``, -0.0 differs from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBlockPathMatchesReference:
    """augment and assemble_instance equal the channel-by-channel oracle bit for bit."""

    @staticmethod
    def assert_matches_reference(trial, pca, alone=((0, 0), (1, 4), (0, 3))):
        instances = augment(trial, pca)
        assert len(instances) == 10
        for inst in instances:
            ref = reference_instance(trial, inst.finger, inst.offset, pca)
            assert same_bits(inst.values, ref), (inst.finger, inst.offset)
        for finger, offset in alone:
            ref = reference_instance(trial, finger, offset, pca)
            assert same_bits(assemble_instance(trial, finger, offset, pca).values, ref)

    @pytest.mark.parametrize("config", [
        *(synth.two_cue_config(n_objects=4, n_trials=1, seed=s) for s in (0, 1, 2)),
        *(synth.separable_config(n_objects=4, n_trials=1, seed=s) for s in (0, 7)),
        replace(synth.two_cue_config(n_objects=4, n_trials=1, seed=11), noise=0.0),
    ], ids=lambda c: f"{c.name}-seed{c.seed}-noise{c.noise}")
    def test_synth_configs(self, config):
        trials, pca = synth_set(config)
        for trial in trials:
            self.assert_matches_reference(trial, pca)

    @pytest.mark.parametrize("pac_len", [DECIMATION * 341, DECIMATION * 340 - 1])
    def test_decimated_pac_one_sample_off(self, pac_len):
        rng = np.random.default_rng(pac_len)
        trial = synth_trial(rng)
        for chans in trial.signals.values():
            chans["P_AC"] = rng.standard_normal(pac_len)
        assert not any(block_problems(chans) for chans in trial.signals.values())
        assert len(decimate_pac(trial.signals[(0, "hold")]["P_AC"])) != 340
        self.assert_matches_reference(trial, fit_all_eps(rng))

    @settings(max_examples=30, phases=(Phase.explicit, Phase.generate))
    @given(base_len=st.integers(MIN_BLOCK_LEN, 400),
           pac_shifts=st.lists(st.sampled_from([-1, 0, 1]), min_size=8, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @example(base_len=MIN_BLOCK_LEN, pac_shifts=[0, 1, -1, 0, 0, 0, 1, 0], seed=1)
    @example(base_len=MIN_BLOCK_LEN + 1, pac_shifts=[-1] * 8, seed=2)
    def test_lengths_and_pac_one_sample_off(self, base_len, pac_shifts, seed):
        # P_AC decimates to base_len + shift samples; a shift of -1 at the
        # shortest base length leaves it one sample short of the last offset
        rng = np.random.default_rng(seed)
        trial = synth_trial(rng, base_len=base_len)
        for chans, shift in zip(trial.signals.values(), pac_shifts):
            spare = 0 if shift == 1 else int(rng.integers(0, DECIMATION))
            chans["P_AC"] = rng.standard_normal(DECIMATION * (base_len + shift) + spare)
        pca = fit_all_eps(rng)
        if base_len + min(pac_shifts) >= MIN_BLOCK_LEN:
            assert not any(block_problems(chans) for chans in trial.signals.values())
            every_offset = [(f, o) for f in FINGERS for o in OFFSETS]
            self.assert_matches_reference(trial, pca, alone=every_offset)
            return
        # signals are in FINGERS x EPS order, the order both checks walk
        finger, ep = next(key for key, shift in zip(trial.signals, pac_shifts) if shift == -1)
        named = (f"trial obj0/0 finger {finger} ep {ep}: 100 Hz length {base_len} "
                 f"and decimated P_AC length {base_len - 1} must both be at least {MIN_BLOCK_LEN}")
        with pytest.raises(InvalidInputError, match=named):
            trial.checked_channels(finger, ep)
        with pytest.raises(InvalidInputError, match=named):
            augment(trial, pca)

    @pytest.mark.parametrize("base_len", [MIN_BLOCK_LEN - 2, RESAMPLE_LEN])
    def test_too_short_block_names_its_length_and_largest_offset(self, base_len):
        # 152 samples take offsets 0-2 only; block_problems rejects the block
        # before any subsampling, so the error names the trial, finger and EP
        rng = np.random.default_rng(base_len)
        trial = synth_trial(rng, base_len=base_len)
        for chans in trial.signals.values():
            chans["P_AC"] = rng.standard_normal(DECIMATION * base_len)
        pca = fit_all_eps(rng)
        too_short = (f"100 Hz length {base_len} and decimated P_AC length {base_len} must "
                     f"both be at least {MIN_BLOCK_LEN} to subsample {RESAMPLE_LEN} samples "
                     f"at offsets up to {max(OFFSETS)}$")
        with pytest.raises(InvalidInputError, match=f"obj0/0 finger 0 ep squeeze: {too_short}"):
            trial.checked_channels(0, "squeeze")
        with pytest.raises(InvalidInputError, match=f"obj0/0 finger 0 ep squeeze: {too_short}"):
            augment(trial, pca)
        with pytest.raises(InvalidInputError, match=f"obj0/0 finger 1 ep squeeze: {too_short}"):
            assemble_instance(trial, 1, 0, pca)


class TestAugment:
    def test_ten_instances_per_trial(self):
        rng = np.random.default_rng(17)
        trial = synth_trial(rng)
        instances = augment(trial, fit_all_eps(rng))
        assert len(instances) == 10
        assert {(i.finger, i.offset) for i in instances} == {
            (f, o) for f in (0, 1) for o in range(5)
        }

    def test_instances_share_no_memory(self):
        rng = np.random.default_rng(26)
        instances = augment(synth_trial(rng), fit_all_eps(rng))
        for i, a in enumerate(instances):
            for b in instances[i + 1:]:
                assert not np.shares_memory(a.values, b.values), (a.finger, a.offset,
                                                                  b.finger, b.offset)

    def test_provenance_tags_shared(self):
        rng = np.random.default_rng(18)
        trial = synth_trial(rng, object_id="mug", trial_index=7)
        for inst in augment(trial, fit_all_eps(rng)):
            assert inst.object_id == "mug"
            assert inst.trial_index == 7

    def test_ep_without_pca_model_is_named(self):
        rng = np.random.default_rng(25)
        trial = synth_trial(rng)
        pca = fit_all_eps(rng)
        del pca["fast_slide"]
        with pytest.raises(InvalidInputError, match=r"no PCA model for EPs: \['fast_slide'\]"):
            augment(trial, pca)

    @pytest.mark.parametrize("k", [3, 5])
    def test_pca_model_of_another_component_count_is_named(self, k):
        rng = np.random.default_rng(29)
        trial, pca = synth_trial(rng), fit_all_eps(rng)
        comps = np.linalg.qr(rng.standard_normal((19, k)))[0]
        pca["hold"] = PcaModel(pca["hold"].mean, comps, np.full(k, 1.0 / 19))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"PCA model for EP hold has components of shape (19, {k}), not (19, 4)")):
            augment(trial, pca)

    def test_53_objects_10_trials_give_5300(self):
        # counting only: augmentation factor is exactly 10 per trial
        per_trial = 2 * 5
        assert 53 * 10 * per_trial == 5300

    def test_instance_matrix_validates_shape(self):
        with pytest.raises(InvalidInputError):
            InstanceMatrix(values=np.zeros((31, 150)), object_id="x",
                           trial_index=0, finger=0, offset=0)
        with pytest.raises(InvalidInputError):
            InstanceMatrix(values=np.full((32, 150), np.nan), object_id="x",
                           trial_index=0, finger=0, offset=0)


class TestTrialValidation:
    def test_intact_trial_passes(self):
        trial = synth_trial(np.random.default_rng(19))
        for finger in FINGERS:
            for ep in EPS:
                trial.checked_channels(finger, ep)

    def test_length_mismatch_rejected(self):
        trial = synth_trial(np.random.default_rng(20))
        trial.signals[(0, "hold")]["T_DC"] = np.zeros(10)
        with pytest.raises(InvalidInputError, match="T_DC"):
            trial.checked_channels(0, "hold")

    @pytest.mark.parametrize("channel", ["T_AC", "E_7"])
    def test_short_channel_rejected_by_validate_and_augment(self, channel):
        rng = np.random.default_rng(22)
        trial = synth_trial(rng, object_id="mug", trial_index=3)
        pca = fit_all_eps(rng)
        chans = trial.signals[(1, "slow_slide")]
        chans[channel] = chans[channel][:-1]
        calls = (lambda: trial.checked_channels(1, "slow_slide"), lambda: augment(trial, pca),
                 lambda: assemble_instance(trial, 1, 0, pca))
        for call in calls:
            with pytest.raises(InvalidInputError) as err:
                call()
            for part in ("mug/3", "finger 1", "slow_slide", f"channel {channel} "):
                assert part in str(err.value)

    def test_missing_block_rejected(self):
        trial = synth_trial(np.random.default_rng(23))
        del trial.signals[(1, "hold")]
        with pytest.raises(InvalidInputError, match="finger=1, ep=hold"):
            trial.checked_channels(1, "hold")

    def test_wrong_pac_ratio_rejected(self):
        trial = synth_trial(np.random.default_rng(21))
        bad = trial.signals[(1, "fast_slide")]
        bad["P_AC"] = np.zeros(10 * len(bad["P_DC"]))
        with pytest.raises(InvalidInputError, match="P_AC"):
            trial.checked_channels(1, "fast_slide")

    def test_empty_100hz_block_rejected(self):
        trial = synth_trial(np.random.default_rng(24), object_id="mug", trial_index=2)
        chans = trial.signals[(0, "squeeze")]
        for c in chans:
            chans[c] = chans[c][:0]
        with pytest.raises(InvalidInputError,
                           match="mug/2 finger 0 ep squeeze: empty 100 Hz channels"):
            trial.checked_channels(0, "squeeze")
