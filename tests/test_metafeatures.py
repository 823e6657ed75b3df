"""Unit + property tests for the 25 meta-features."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, SyntheticSpec, make_dataset
from repro.metafeatures import META_FEATURE_NAMES, MetaFeatures, extract_metafeatures
from repro.metafeatures.extractor import _skew_kurtosis
from repro.testing import HOSTILE_TRAITS, make_hostile_dataset


def test_exactly_25_metafeatures():
    assert len(META_FEATURE_NAMES) == 25


def test_paper_named_examples_present():
    # "number of instances, number of classes, skewness and kurtosis of
    #  numerical features, and symbols of categorical features"
    assert "n_instances" in META_FEATURE_NAMES
    assert "n_classes" in META_FEATURE_NAMES
    assert any(name.startswith("skewness") for name in META_FEATURE_NAMES)
    assert any(name.startswith("kurtosis") for name in META_FEATURE_NAMES)
    assert any("symbols" in name for name in META_FEATURE_NAMES)


def test_simple_counts(mixed_ds):
    mf = extract_metafeatures(mixed_ds)
    assert mf.n_instances == mixed_ds.n_instances
    assert mf.n_features == mixed_ds.n_features
    assert mf.n_classes == mixed_ds.n_classes
    assert mf.n_categorical == len(mixed_ds.categorical_indices)
    assert mf.n_numeric + mf.n_categorical == mf.n_features


def test_class_statistics_balanced():
    rng = np.random.default_rng(0)
    ds = Dataset(X=rng.normal(size=(40, 3)), y=np.tile([0, 1], 20))
    mf = extract_metafeatures(ds)
    assert mf.class_entropy == pytest.approx(1.0)
    assert mf.imbalance_ratio == pytest.approx(1.0)
    assert mf.class_prob_min == pytest.approx(0.5)


def test_class_entropy_drops_with_imbalance():
    rng = np.random.default_rng(1)
    balanced = Dataset(X=rng.normal(size=(40, 2)), y=np.tile([0, 1], 20))
    skewed = Dataset(X=rng.normal(size=(40, 2)), y=np.array([0] * 36 + [1] * 4))
    assert (
        extract_metafeatures(skewed).class_entropy
        < extract_metafeatures(balanced).class_entropy
    )


def test_missing_ratio_reported(mixed_ds):
    mf = extract_metafeatures(mixed_ds)
    assert mf.missing_ratio == pytest.approx(mixed_ds.missing_ratio())


def test_skewness_detects_asymmetry():
    rng = np.random.default_rng(2)
    sym = Dataset(X=rng.normal(size=(300, 1)), y=rng.integers(0, 2, 300))
    skew = Dataset(X=rng.lognormal(size=(300, 1)), y=rng.integers(0, 2, 300))
    assert abs(extract_metafeatures(skew).skewness_mean) > abs(
        extract_metafeatures(sym).skewness_mean
    )


def test_symbols_mean(mixed_ds):
    mf = extract_metafeatures(mixed_ds)
    cards = mixed_ds.category_cardinalities()
    assert mf.symbols_mean == pytest.approx(cards.mean())


def test_no_numeric_columns_gives_zero_moments():
    rng = np.random.default_rng(3)
    ds = Dataset(
        X=rng.integers(0, 3, size=(30, 2)).astype(float),
        y=rng.integers(0, 2, 30),
        categorical_mask=np.array([True, True]),
    )
    mf = extract_metafeatures(ds)
    assert mf.skewness_mean == 0.0
    assert mf.kurtosis_mean == 0.0


def test_vector_roundtrip(mixed_ds):
    mf = extract_metafeatures(mixed_ds)
    vec = mf.to_vector()
    assert vec.shape == (25,)
    assert MetaFeatures.from_vector(vec) == mf


def test_dict_roundtrip(mixed_ds):
    mf = extract_metafeatures(mixed_ds)
    assert MetaFeatures.from_dict(mf.to_dict()) == mf


def test_from_dict_ignores_unknown_defaults_missing():
    mf = MetaFeatures.from_dict({"n_instances": 5.0, "bogus": 1.0})
    assert mf.n_instances == 5.0
    assert mf.n_features == 0.0


def test_from_vector_wrong_shape_raises():
    with pytest.raises(ValueError):
        MetaFeatures.from_vector(np.zeros(7))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=12, max_value=120),
    d=st.integers(min_value=1, max_value=10),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_property_metafeatures_always_finite(n, d, k, seed):
    n = max(n, 2 * k)
    ds = make_dataset(
        SyntheticSpec(name="p", n_instances=n, n_features=d, n_classes=k,
                      n_categorical=min(1, d - 1) if d > 1 else 0,
                      missing_ratio=0.05, seed=seed)
    )
    vec = extract_metafeatures(ds).to_vector()
    assert np.isfinite(vec).all()
    mf = extract_metafeatures(ds)
    assert 0.0 <= mf.class_entropy <= 1.0 + 1e-9
    assert 0.0 <= mf.imbalance_ratio <= 1.0


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    traits=st.lists(st.sampled_from(HOSTILE_TRAITS), unique=True, max_size=4),
    n_rows=st.integers(min_value=3, max_value=60),
    near_constant=st.sampled_from([0.0, 1e-9, 1e-13]),
    length_3=st.booleans(),
)
def test_property_moments_equal_scipy_bit_for_bit(
    seed, traits, n_rows, near_constant, length_3
):
    # scipy.stats is the oracle only: the extractor never imports it.
    from scipy import stats

    ds = make_hostile_dataset(seed, traits=traits, n_rows=n_rows)
    for j in range(ds.n_features):
        col = ds.X[:, j]
        col = col[np.isfinite(col)]  # the extractor's NaN/inf filter
        if near_constant:
            col = 1e6 + col * near_constant
        if length_3:
            col = col[:3]
        if col.size < 3:
            continue
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")  # scipy's precision-loss warning
            expected = stats.skew(col), stats.kurtosis(col)
            got = _skew_kurtosis(col)
        assert _bits(got[0]) == _bits(expected[0]), (col.tolist(), got, expected)
        assert _bits(got[1]) == _bits(expected[1]), (col.tolist(), got, expected)
