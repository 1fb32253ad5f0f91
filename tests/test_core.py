import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conered import HsiMatrix, IndexSet, detect_format, l1_normalize_columns, load_matrix, mrsa, store_matrix
from conered.core import l1_cost, mrsa_cost
from conered.errors import DegenerateVector, DimensionMismatch, ParseError, ZeroColumn

from oracles import mrsa_naive, mrsa_scalar_reference


def test_normalize_scaling():
    out = l1_normalize_columns(np.array([[2.0], [0.0], [0.0]]))
    assert np.array_equal(out, np.array([[1.0], [0.0], [0.0]]))


def test_normalize_uses_absolute_values():
    out = l1_normalize_columns(np.array([[1.0], [-1.0]]))
    assert np.array_equal(out, np.array([[0.5], [-0.5]]))


def test_normalize_idempotent_on_normalized_input():
    a = np.array([[0.25, 1.0], [0.75, 0.0]])
    assert np.array_equal(l1_normalize_columns(a), a)


def test_normalize_rejects_zero_column():
    with pytest.raises(ZeroColumn):
        l1_normalize_columns(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_normalize_keeps_matrix_kind():
    m = HsiMatrix(np.array([[2.0], [2.0]]))
    out = l1_normalize_columns(m)
    assert isinstance(out, HsiMatrix)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ).filter(lambda a: np.abs(a).sum(axis=0).min() > 1e-9)
)
def test_normalize_columns_have_unit_l1(a):
    out = l1_normalize_columns(a)
    sums = np.abs(out).sum(axis=0)
    assert np.all(np.abs(sums - 1.0) < 1e-12)
    again = l1_normalize_columns(out)
    assert np.allclose(again, out, rtol=0, atol=1e-15)


def test_mrsa_identical_is_exactly_zero():
    a = np.array([3.0, 1.0, -2.0, 0.5])
    assert mrsa(a, a) == 0.0


def test_mrsa_antipodal_after_mean_removal():
    a = np.array([1.0, 0.0, 2.0, -1.0, 3.0])
    b = -a + 2.0 * a.mean()
    assert mrsa(a, b) == pytest.approx(1.0, abs=1e-12)


def test_mrsa_hand_case():
    # mean-removed b = (-1/3, 2/3, -1/3), cosine 1/2, angle pi/3
    a = np.array([1.0, 0.0, -1.0])
    b = np.array([0.0, 1.0, -1.0])
    assert mrsa(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_mrsa_rejects_constant_vector():
    with pytest.raises(DegenerateVector):
        mrsa(np.array([2.0, 2.0, 2.0]), np.array([1.0, 0.0, 0.0]))


def test_mrsa_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        mrsa(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


vecs = arrays(
    np.float64,
    st.shared(st.integers(3, 8), key="mrsa_dim"),
    elements=st.floats(-100, 100, allow_nan=False),
)


@given(vecs, vecs)
@settings(max_examples=200)
def test_mrsa_symmetric_bounded_and_matches_naive(a, b):
    da = a - a.mean()
    db = b - b.mean()
    if np.linalg.norm(da) < 1e-6 or np.linalg.norm(db) < 1e-6:
        return
    v1 = mrsa(a, b)
    v2 = mrsa(b, a)
    assert v1 == pytest.approx(v2, abs=1e-14)
    assert 0.0 <= v1 <= 1.0
    assert v1 == pytest.approx(mrsa_naive(a, b), abs=1e-7)


@given(
    vecs,
    st.floats(0.1, 50.0),
    st.floats(-20.0, 20.0),
)
@settings(max_examples=200)
def test_mrsa_invariant_to_positive_scale_and_shift(a, scale, shift):
    if np.linalg.norm(a - a.mean()) < 1e-6:
        return
    ref = np.arange(a.size, dtype=np.float64)
    ref[0] = -1.0
    assert mrsa(scale * a + shift, ref) == pytest.approx(mrsa(a, ref), abs=1e-9)


_entries = st.floats(-100, 100, allow_nan=False)


@st.composite
def _column_sets(draw):
    """Two column sets on shared rows. Some columns of w are s * c_i + t for a
    column c_i of c (MRSA 0 or 1 up to rounding); about one in six is
    constant (DegenerateVector)."""
    d = draw(st.integers(2, 40))
    c = draw(arrays(np.float64, (d, draw(st.integers(1, 4))), elements=_entries, fill=st.nothing()))
    w = draw(arrays(np.float64, (d, draw(st.integers(1, 6))), elements=_entries, fill=st.nothing()))
    for k in range(w.shape[1]):
        kind = draw(st.sampled_from(["drawn", "affine", "affine", "drawn", "affine", "constant"]))
        if kind == "affine":
            i = draw(st.integers(0, c.shape[1] - 1))
            scale = draw(st.floats(0.1, 50.0) | st.floats(-50.0, -0.1))
            w[:, k] = scale * c[:, i] + draw(st.floats(-20.0, 20.0))
        elif kind == "constant":
            w[:, k] = draw(_entries)
    return c, w


@given(_column_sets())
@settings(max_examples=300, deadline=None)
def test_mrsa_cost_matches_the_scalar_referee_pair_by_pair(sets):
    c, w = sets
    try:
        ref = np.array(
            [[mrsa_scalar_reference(c[:, i], w[:, k]) for k in range(w.shape[1])]
             for i in range(c.shape[1])]
        )
    except DegenerateVector:
        with pytest.raises(DegenerateVector):
            mrsa_cost(c, w)
        return
    got = mrsa_cost(c, w)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-15
    # looping over the other argument's columns gives the same bytes
    assert np.array_equal(mrsa_cost(w, c), got.T)


def test_mrsa_cost_is_exact_for_identical_and_antipodal_columns():
    rng = np.random.default_rng(4)
    c = rng.normal(size=(30, 7))
    assert np.array_equal(np.diag(mrsa_cost(c, c)), np.zeros(7))
    assert np.array_equal(np.diag(mrsa_cost(c, -c)), np.ones(7))


def test_mrsa_cost_rejects_row_mismatch_and_single_rows():
    with pytest.raises(DimensionMismatch):
        mrsa_cost(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(DimensionMismatch):
        mrsa_cost(np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(DimensionMismatch):
        l1_cost(np.ones((3, 2)), np.ones((4, 2)))


def test_l1_cost_matches_broadcast_differences():
    rng = np.random.default_rng(5)
    c = rng.normal(size=(9, 3))
    w = rng.normal(size=(9, 11))
    ref = np.abs(c[:, :, None] - w[:, None, :]).sum(axis=0)
    assert np.array_equal(l1_cost(c, w), ref)
    assert np.array_equal(l1_cost(w, c), ref.T)


def test_hsm1_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    path = tmp_path / "m.hsm1"
    store_matrix(a, str(path))
    first = path.read_bytes()
    back = load_matrix(str(path))
    assert np.array_equal(back.values, a)
    store_matrix(back.values, str(path))
    assert path.read_bytes() == first


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 3))
    path = tmp_path / "m.csv"
    store_matrix(a, str(path))
    back = load_matrix(str(path))
    assert np.array_equal(back.values, a)


def test_format_detection_by_extension(tmp_path):
    assert detect_format("x.csv") == "csv"
    assert detect_format("x.hsm1") == "hsm1"
    assert detect_format("x.bin") == "hsm1"


def test_ragged_csv_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as err:
        load_matrix(str(path))
    assert err.value.line == 2


def test_non_numeric_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError):
        load_matrix(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_matrix(str(path))
    binpath = tmp_path / "empty.hsm1"
    binpath.write_bytes(b"")
    with pytest.raises(ParseError):
        load_matrix(str(binpath))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.hsm1"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ParseError):
        load_matrix(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.hsm1"
    store_matrix(np.ones((2, 3)), str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError):
        load_matrix(str(path))


def test_nonfinite_csv_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,inf\n2.0,3.0\n")
    with pytest.raises(ParseError):
        load_matrix(str(path))


def test_matrix_is_read_only():
    m = HsiMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0


def test_matrix_rejects_nan():
    with pytest.raises(ValueError):
        HsiMatrix(np.array([[np.nan, 1.0]]))


def test_matrix_dims():
    m = HsiMatrix(np.zeros((4, 7)))
    assert m.d == 4 and m.n == 7
    assert m.column(2).shape == (4,)


def test_index_set_one_based_round_trip():
    k = IndexSet.from_one_based([3, 1, 7])
    assert list(k.indices) == [0, 2, 6]
    assert list(k.to_one_based()) == [1, 3, 7]


def test_index_set_rejects_duplicates():
    with pytest.raises(ValueError):
        IndexSet(np.array([1, 1, 2]))


def test_index_set_rejects_negative():
    with pytest.raises(ValueError):
        IndexSet.from_iterable([-1, 0])


def test_index_set_validate_bounds():
    k = IndexSet.from_iterable([0, 5])
    with pytest.raises(DimensionMismatch):
        k.validate_for(5)
    k.validate_for(6)


def test_index_set_membership_and_len():
    k = IndexSet.from_iterable([4, 0, 2])
    assert len(k) == 3
    assert list(k.indices) == [0, 2, 4]
