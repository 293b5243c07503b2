"""Transition matrices, primitivity, characteristic polynomials, PF data."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from ttlam import (
    NotPrimitiveError,
    charpoly_coefficients,
    detect_inps,
    is_primitive,
    pf_data,
    transition_matrix,
)
from ttlam import nielsen
from ttlam.errors import TtError
from ttlam.spectral import _collatz_wielandt_certified

from conftest import positive_rose_maps, reduced_rose_maps, rose_map, train_track_automorphisms
from oracles import counted_transition_matrix, numpy_spectral, pf_data_reference


def test_transition_matrices(fib, trib, trib_inv, reducible):
    assert transition_matrix(fib).tolist() == [[1, 1], [1, 0]]
    assert transition_matrix(trib).tolist() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    assert transition_matrix(trib_inv).tolist() == [[1, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert transition_matrix(reducible).tolist() == [[1, 1, 1], [1, 0, 1], [0, 0, 1]]


def _assert_transition_matrix_counts(f):
    m = transition_matrix(f)
    assert m.dtype == np.int64
    assert m.tolist() == counted_transition_matrix(f)


@given(reduced_rose_maps())
def test_transition_matrix_matches_counter_random(f):
    _assert_transition_matrix_counts(f)


@given(positive_rose_maps(moves_per_rank=1))
def test_transition_matrix_matches_counter_subdivided(f):
    rep = detect_inps(f, max_period=2)
    if rep.subdivision is not None:
        _assert_transition_matrix_counts(rep.subdivision.map)


def test_primitivity(fib, trib, trib_inv, reducible):
    assert is_primitive(transition_matrix(fib))
    assert is_primitive(transition_matrix(trib))
    assert is_primitive(transition_matrix(trib_inv))
    assert not is_primitive(transition_matrix(reducible))


def test_primitive_vs_positive_power(all_maps):
    for f in all_maps.values():
        m = transition_matrix(f)
        n = m.shape[0]
        p = np.linalg.matrix_power(m.astype(object), (n - 1) ** 2 + 1)
        assert is_primitive(m) == bool((p > 0).all())


def _cycle(n):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, (i + 1) % n] = 1
    return m


def _bool_power(m, k):
    """(m > 0)^k over booleans, by binary exponentiation."""
    base, out = m > 0, np.eye(m.shape[0], dtype=bool)
    while k:
        if k & 1:
            out = out @ base
        base, k = base @ base, k >> 1
    return out


def test_primitivity_n129():
    # past n = 128 walk counts no longer fit in int8
    n = 129
    assert is_primitive(np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64))
    assert not is_primitive(_cycle(n))


def test_primitivity_wielandt_n129():
    # cycles of lengths n and n - 1: the largest primitive exponent, (n-1)^2 + 1
    n = 129
    m = _cycle(n)
    m[n - 1, 1] = 1
    assert not _bool_power(m, (n - 1) ** 2).all()
    assert _bool_power(m, (n - 1) ** 2 + 1).all()
    assert is_primitive(m)


def test_charpoly_known(fib, trib, trib_inv):
    assert charpoly_coefficients(transition_matrix(fib)) == [1, -1, -1]
    assert charpoly_coefficients(transition_matrix(trib)) == [1, 0, -1, -1]
    assert charpoly_coefficients(transition_matrix(trib_inv)) == [1, -1, 0, -1]


def test_charpoly_matches_numpy(all_maps):
    for f in all_maps.values():
        m = transition_matrix(f)
        ours = charpoly_coefficients(m)
        theirs = np.poly(m.astype(np.float64))
        assert np.allclose(ours, theirs, atol=1e-6)


def test_pf_data_against_numpy(fib, trib, trib_inv):
    for f in (fib, trib, trib_inv):
        m = transition_matrix(f)
        pf = pf_data(f)
        lam, vec = numpy_spectral(m)
        assert abs(pf.lam - lam) < 1e-9
        assert np.allclose(pf.pf_lengths, vec, atol=1e-9)
        assert abs(sum(pf.pf_lengths) - 1.0) < 1e-12
        assert pf.min_pf_length > 0
        assert pf.c_illegal == math.ceil(4.0 / pf.min_pf_length)


def test_collatz_wielandt_bracket():
    # fibonacci: M^T [phi, 1] = phi [phi, 1]; the bracket is tested both ways
    phi = (1 + math.sqrt(5)) / 2
    rows = [[1, 1], [1, 0]]
    w = np.array([phi, 1.0]) / (phi + 1)
    assert _collatz_wielandt_certified(rows, phi, w)
    assert not _collatz_wielandt_certified(rows, phi + 2e-8, w)
    assert not _collatz_wielandt_certified(rows, phi - 2e-8, w)
    assert not _collatz_wielandt_certified(rows, phi, np.array([1.0, 0.0]))


def test_pf_data_certifies_loose_tol_rank_7_and_8():
    # a loose tol settles the iteration early; lam must still be certified
    # to 1e-8 at ranks where no characteristic polynomial is computed
    maps = (
        rose_map(["a b c", "b c", "c d e", "d e", "e f", "f g a", "g a"]),
        rose_map(["a b", "b c", "c d", "d e", "e f", "f g", "g h", "h a b"]),
    )
    for f in maps:
        lam, _ = numpy_spectral(transition_matrix(f))
        assert abs(pf_data(f, tol=1e-4).lam - lam) < 1e-8


@given(positive_rose_maps())
def test_pf_data_matches_numpy_random(f):
    lam, vec = numpy_spectral(transition_matrix(f))
    pf = pf_data(f)
    assert abs(pf.lam - lam) < 1e-9
    assert np.allclose(pf.pf_lengths, vec, atol=1e-9)


def test_pf_expansion_law(fib, trib, trib_inv):
    # pf length of every edge image is lam times the edge's pf length
    for f in (fib, trib, trib_inv):
        pf = pf_data(f)
        for e in range(f.graph.num_edges):
            img = f.edge_image[e]
            assert abs(pf.pf_length(img) - pf.lam * pf.pf_lengths[e]) < 1e-9


def test_pf_constants_frozen(fib, trib):
    assert pf_data(trib).c_illegal == 17
    assert pf_data(fib).c_illegal == 11


def test_pf_rejects_nonprimitive(reducible):
    with pytest.raises(NotPrimitiveError):
        pf_data(reducible)


def test_expansion_factor(trib):
    assert abs(pf_data(trib).lam - 1.3247179572447460) < 1e-9


def test_edge_iterate_lengths_are_column_sums(trib):
    m = transition_matrix(trib)
    for t in (0, 1, 2, 5, 9):
        expect = np.linalg.matrix_power(m.astype(object), t).sum(axis=0).tolist()
        assert list(trib.edge_iterates.lengths(t)) == expect


def test_edge_iterate_lengths(fib):
    # column sums of M^t are the iterated image lengths
    for t in (1, 2, 3, 4, 8):
        lens = fib.edge_iterates.lengths(t)
        assert list(lens) == [len(fib.iterate((2 * e,), t)) for e in range(2)]


def test_edge_iterate_lengths_large_exact(fib):
    # bigint path: t = 90 overflows int64 but not Python ints
    lengths = fib.edge_iterates.lengths
    assert lengths(90)[0] > 2**62
    assert lengths(90)[0] == lengths(89)[0] + lengths(88)[0]


@given(st.data())
def test_charpoly_matches_numpy_random(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    entries = data.draw(
        st.lists(st.integers(min_value=0, max_value=6), min_size=n * n, max_size=n * n)
    )
    m = np.array(entries, dtype=np.int64).reshape(n, n)
    assert np.allclose(charpoly_coefficients(m), np.poly(m.astype(np.float64)), atol=1e-5)


def _sympy_charpoly(m):
    return [int(c) for c in sympy.Matrix(m.tolist()).charpoly().all_coeffs()]


@given(st.data())
def test_charpoly_exact_random(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    entries = data.draw(
        st.lists(st.integers(min_value=0, max_value=60), min_size=n * n, max_size=n * n)
    )
    m = np.array(entries, dtype=np.int64).reshape(n, n)
    assert charpoly_coefficients(m) == _sympy_charpoly(m)


@given(positive_rose_maps())
def test_charpoly_exact_rose_maps(f):
    m = transition_matrix(f)
    assert charpoly_coefficients(m) == _sympy_charpoly(m)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TtError as exc:
        return type(exc)


def _assert_pf_data_bit_identical(f):
    """`pf_data` equals `pf_data_reference` field for field, floats with ==,
    on f and on its subdivision at the first interior orbit."""
    assert _outcome(pf_data, f) == _outcome(pf_data_reference, f), f.edge_image
    point = nielsen._first_interior_point(f, 6)
    if point is None:
        return
    sub = nielsen.subdivide_at(f, point)
    assert _outcome(pf_data, sub.map) == _outcome(pf_data_reference, sub.map), f.edge_image


def test_pf_data_bit_identical_to_reference_fixtures(all_maps):
    for f in all_maps.values():
        _assert_pf_data_bit_identical(f)


@given(positive_rose_maps())
def test_pf_data_bit_identical_to_reference_random(f):
    _assert_pf_data_bit_identical(f)


def test_pf_data_bit_identical_to_reference_signed():
    # signed rank-3 automorphisms: some are not primitive, and both sides
    # must then refuse alike
    for f in train_track_automorphisms(3, 30, seed=25):
        _assert_pf_data_bit_identical(f)
