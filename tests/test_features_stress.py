"""Stress feature catalogs: counts, named examples, determinism, finiteness."""

import numpy as np
import pytest

from helpers import make_bundle, pulse_wave, single_window
from homevitals.features import (
    BVP_FEATURE_NAMES,
    EDA_FEATURE_NAMES,
    IBI_FEATURE_NAMES,
    ST_FEATURE_NAMES,
    bvp_features,
    eda_features,
    ibi_features,
    st_features,
    stress_feature_matrix,
)
from homevitals.signals import WindowSpec, make_windows


def named(names, row: np.ndarray) -> dict[str, float]:
    """An extractor's row keyed by its catalog's names."""
    assert row.dtype == np.float64 and row.shape == (len(names),)
    return dict(zip(names, row.tolist()))


def scr_bump(t_rel, rise=1.0, decay=3.0):
    return np.where(t_rel < 0, 0.0, (t_rel / rise) * np.exp(1 - t_rel / decay) * (t_rel < rise))


class TestEdaFeatures:
    def test_constant_signal(self):
        fv = named(EDA_FEATURE_NAMES, eda_features(single_window(eda=np.full(360, 2.5))))
        assert fv["eda_mean"] == pytest.approx(2.5)
        for name in (
            "eda_std",
            "eda_slope",
            "eda_scr_count",
            "eda_phasic_mean",
            "eda_phasic_std",
            "eda_scr_amp_mean",
            "eda_scr_amp_sum",
        ):
            assert fv[name] == pytest.approx(0.0, abs=1e-9), name

    def test_catalog_size(self):
        assert eda_features(single_window()).shape == (len(EDA_FEATURE_NAMES),) == (18,)

    def test_scr_count_matches_injected_bumps(self):
        t = np.arange(360) / 4.0
        eda = np.full(360, 2.0)
        for onset in (15.0, 40.0, 70.0):
            eda = eda + 0.6 * np.interp(t - onset, [0, 1, 2, 4, 8], [0, 1, 0.7, 0.3, 0])
        fv = named(EDA_FEATURE_NAMES, eda_features(single_window(eda=eda)))
        assert fv["eda_scr_count"] == 3.0
        assert fv["eda_scr_amp_mean"] > 0.3
        assert fv["eda_scr_rise_mean"] > 0.0


class TestBvpFeatures:
    def test_catalog_size(self):
        fv = bvp_features(single_window(bvp=pulse_wave(90, 64, 1.1)))
        assert fv.shape == (len(BVP_FEATURE_NAMES),) == (17,)

    def test_dominant_frequency(self):
        fv = named(BVP_FEATURE_NAMES, bvp_features(single_window(bvp=pulse_wave(90, 64, 1.2, noise=0.01))))
        assert fv["bvp_dominant_freq"] == pytest.approx(1.2, abs=0.1)

    def test_constant_input_falls_back(self):
        fv = named(BVP_FEATURE_NAMES, bvp_features(single_window(bvp=np.full(5760, 1.0))))
        for name in (
            "bvp_peak_count",
            "bvp_pp_interval_mean",
            "bvp_pp_interval_std",
            "bvp_peak_amp_mean",
            "bvp_peak_amp_std",
            "bvp_dominant_freq",
        ):
            assert fv[name] == 0.0, name

    def test_peak_interval_tracks_rate(self):
        fv = named(BVP_FEATURE_NAMES, bvp_features(single_window(bvp=pulse_wave(90, 64, 1.25))))
        assert fv["bvp_pp_interval_mean"] == pytest.approx(0.8, abs=0.02)


class TestIbiFeatures:
    def test_constant_ibi(self):
        pairs = [(int(t * 1000), 0.8) for t in np.arange(0.4, 90, 0.8)]
        fv = named(IBI_FEATURE_NAMES, ibi_features(single_window(ibi_pairs=pairs)))
        assert fv["ibi_mean"] == pytest.approx(0.8)
        assert fv["ibi_sdnn"] == 0.0
        assert fv["ibi_rmssd"] == 0.0
        assert fv["ibi_pnn50"] == 0.0
        assert fv["ibi_hr_mean"] == pytest.approx(75.0)

    def test_rmssd_single_difference(self):
        fv = named(IBI_FEATURE_NAMES, ibi_features(single_window(ibi_pairs=[(1000, 0.8), (1900, 0.9)])))
        assert fv["ibi_rmssd"] == pytest.approx(0.1)
        assert fv["ibi_pnn50"] == pytest.approx(100.0)

    def test_catalog_size_and_fallback(self):
        fv = ibi_features(single_window(ibi_pairs=[(1000, 0.8)]))
        assert fv.shape == (len(IBI_FEATURE_NAMES),) == (6,)
        assert np.all(fv == 0.0)


class TestStFeatures:
    def test_constant_temperature(self):
        fv = st_features(single_window(st=np.full(360, 33.0)))
        assert list(fv) == pytest.approx([33.0, 0.0, 33.0, 33.0, 0.0, 0.0])

    def test_ramp(self):
        fv = named(ST_FEATURE_NAMES, st_features(single_window(st=np.linspace(30.0, 31.0, 360))))
        assert fv["st_slope"] > 0
        assert fv["st_range"] == pytest.approx(1.0)

    def test_catalog_size(self):
        assert st_features(single_window()).shape == (len(ST_FEATURE_NAMES),) == (6,)


@pytest.fixture(scope="module")
def windows():
    rng = np.random.default_rng(7)
    bundle = make_bundle(
        duration_s=180.0,
        eda=2.0 + 0.3 * rng.normal(size=720).cumsum() / 50 + 0.05 * rng.normal(size=720),
        bvp=pulse_wave(180, 64, 1.15, noise=0.02),
        st=33.0 + 0.01 * rng.normal(size=720).cumsum(),
    )
    return make_windows(bundle, WindowSpec(90.0, 45.0))


class TestStressFeatureMatrix:
    @pytest.mark.parametrize(
        "channels,expected",
        [
            (("EDA",), 18),
            (("EDA", "BVP"), 35),
            (("EDA", "BVP", "IBI"), 41),
            (("EDA", "BVP", "IBI", "ST"), 47),
        ],
    )
    def test_column_counts_per_combination(self, windows, channels, expected):
        matrix = stress_feature_matrix(windows, channels)
        assert len(matrix.names) == expected
        assert len(matrix) == len(windows)

    @pytest.mark.parametrize("channels", [("EDA",), ("ST", "EDA", "IBI"), ("EDA", "BVP", "IBI", "ST")])
    def test_rows_are_the_extractor_arrays_concatenated_in_channel_order(self, windows, channels):
        extractors = {
            "EDA": (eda_features, EDA_FEATURE_NAMES),
            "BVP": (bvp_features, BVP_FEATURE_NAMES),
            "IBI": (ibi_features, IBI_FEATURE_NAMES),
            "ST": (st_features, ST_FEATURE_NAMES),
        }
        ordered = [c for c in ("EDA", "BVP", "IBI", "ST") if c in channels]
        matrix = stress_feature_matrix(windows, channels)
        expected = np.array(
            [np.concatenate([extractors[c][0](w) for c in ordered]) for w in windows]
        )
        assert matrix.X.tobytes() == expected.tobytes()
        assert matrix.names == tuple(n for c in ordered for n in extractors[c][1])
        assert matrix.subject_ids == tuple(w.bundle.subject_id for w in windows)

    def test_extraction_is_deterministic(self, windows):
        a = stress_feature_matrix(windows)
        b = stress_feature_matrix(windows)
        assert np.array_equal(a.X, b.X)

    def test_all_features_finite_across_random_windows(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n_ibi = rng.integers(0, 100)
            times = np.sort(rng.choice(np.arange(400, 89600, 50), size=n_ibi, replace=False))
            pairs = [(int(t), float(rng.uniform(0.5, 1.4))) for t in times]
            bundle = make_bundle(
                eda=np.abs(rng.normal(2, 0.5, size=360)),
                bvp=rng.normal(size=5760),
                st=rng.normal(33, 0.4, size=360),
                ibi_pairs=pairs,
            )
            matrix = stress_feature_matrix(make_windows(bundle, WindowSpec(90.0, 45.0)))
            assert np.all(np.isfinite(matrix.X)), seed
