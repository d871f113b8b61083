"""The matrix engine's CSR × dense kernel against scipy's own product.

``repro.core.engines.matrix._csr_dot`` calls scipy's private
``csr_matvec``/``csr_matvecs`` routines directly, on views of the
engine's CSR arrays. Every product of the assignment sweep goes through
it, and the golden digests pin those products' bits, so it must give
exactly what ``scipy.sparse.csr_matrix(...) @ dense`` gives: for rows
with no entries, for a run of rows whose ``indptr`` slice does not
start at 0, for 1-D and 2-D operands, and for both index widths.
"""

import numpy as np
import pytest
import scipy.sparse

from repro.core.engines.matrix import _csr_dot

N_COLS = 40


def random_csr(rng, n_rows, dtype):
    """CSR arrays of ``n_rows`` rows, about a third of them and at least
    one empty, each row's columns distinct and ascending (the engine's
    layout)."""
    lens = rng.integers(0, 12, size=n_rows)
    lens[rng.random(n_rows) < 0.3] = 0
    lens[rng.integers(n_rows)] = 0
    indptr = np.zeros(n_rows + 1, dtype=dtype)
    np.cumsum(lens, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(N_COLS, size=n, replace=False)) for n in lens]
        + [np.zeros(0, dtype=np.int64)]
    ).astype(dtype)
    data = rng.standard_normal(int(indptr[-1])) * 10.0 ** rng.integers(
        -6, 6, size=int(indptr[-1])
    )
    return indptr, indices, data


def operands(rng):
    yield rng.standard_normal(N_COLS)
    yield rng.standard_normal((N_COLS, 1))
    yield rng.standard_normal((N_COLS, 7))
    # sparse-looking operand columns, as a Gram chunk's are
    dense = rng.standard_normal((N_COLS, 32))
    dense[rng.random(dense.shape) < 0.8] = 0.0
    yield dense


def assert_bits_equal(got, want):
    want = np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("seed", range(6))
def test_whole_matrix_matches_scipy(dtype, seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 60))
    indptr, indices, data = random_csr(rng, n_rows, dtype)
    matrix = scipy.sparse.csr_matrix(
        (data, indices, indptr), shape=(n_rows, N_COLS)
    )
    for dense in operands(rng):
        assert_bits_equal(_csr_dot(indptr, indices, data, dense),
                          matrix @ dense)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("seed", range(6))
def test_suffix_view_matches_scipy(dtype, seed):
    """Rows ``[lo, n)`` as the sweep reads them: a slice of ``indptr``
    whose offsets start past 0, over the whole ``indices`` and
    ``data``, against scipy's product of the same rows rebased."""
    rng = np.random.default_rng(100 + seed)
    n_rows = int(rng.integers(2, 60))
    indptr, indices, data = random_csr(rng, n_rows, dtype)
    matrix = scipy.sparse.csr_matrix(
        (data, indices, indptr), shape=(n_rows, N_COLS)
    )
    for lo in sorted({1, int(rng.integers(1, n_rows)), n_rows - 1,
                      n_rows}):
        view = indptr[lo:]
        start = int(indptr[lo])
        rebased = scipy.sparse.csr_matrix(
            (data[start:], indices[start:], indptr[lo:] - start),
            shape=(n_rows - lo, N_COLS),
        )
        for dense in operands(rng):
            got = _csr_dot(view, indices, data, dense)
            assert_bits_equal(got, rebased @ dense)
            assert_bits_equal(got, matrix[lo:] @ dense)


def test_the_operand_and_the_arrays_are_left_alone():
    rng = np.random.default_rng(7)
    indptr, indices, data = random_csr(rng, 20, np.int64)
    dense = rng.standard_normal((N_COLS, 5))
    before = [a.copy() for a in (indptr, indices, data, dense)]
    _csr_dot(indptr[3:], indices, data, dense)
    for original, kept in zip((indptr, indices, data, dense), before):
        assert np.array_equal(original, kept)
