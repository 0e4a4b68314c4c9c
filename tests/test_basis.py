import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab.basis import (
    MAX_CUBIC_POINTS,
    MAX_LINE_POINTS,
    build_basis,
    build_basis_1d,
)
from lelab.errors import DimensionCapError


def test_cubic_m1_size_and_shells():
    basis = build_basis(1, 1.0)
    assert basis.size == 27
    assert basis.n_shells == 4
    np.testing.assert_array_equal(basis.shells.norms2, [0, 1, 2, 3])
    np.testing.assert_array_equal(np.diff(basis.shells.bounds), [1, 6, 12, 8])
    np.testing.assert_allclose(basis.shells.energies, [0.0, 1.0, 2.0, 3.0])


def test_cubic_m2_skips_norm_seven():
    # 7 is not a sum of three squares, so no shell sits at |n|^2 = 7
    basis = build_basis(2, 1.0)
    assert basis.size == 125
    assert 7 not in set(basis.shells.norms2.tolist())
    np.testing.assert_array_equal(basis.shells.norms2, [0, 1, 2, 3, 4, 5, 6, 8, 9, 12])


def test_energies_scale_with_spacing():
    b1 = build_basis(1, 1.0)
    b2 = build_basis(1, 0.5)
    np.testing.assert_allclose(b2.energies, 0.25 * b1.energies)
    np.testing.assert_array_equal(b2.norms2, b1.norms2)
    coarse = build_basis(1, 2.0)
    assert set(np.unique(coarse.energies)) == {0.0, 4.0, 8.0, 12.0}


def test_zero_extent_basis_is_a_single_resting_point():
    b = build_basis(0, 1.0)
    assert b.size == 1
    np.testing.assert_array_equal(b.points, [[0, 0, 0]])
    np.testing.assert_array_equal(b.energies, [0.0])
    assert b.n_shells == 1
    np.testing.assert_array_equal(b.shells.bounds, [0, 1])


@pytest.mark.parametrize("basis", [build_basis(m, 1.0) for m in range(5)] + [build_basis_1d(16, 1.0)],
                         ids=[f"M{m}" for m in range(5)] + ["N16"])
def test_shell_order_and_index_of(basis):
    # points ascend in |n|^2 and are lexicographic within a shell
    keys = [(x * x + y * y + z * z, x, y, z) for x, y, z in basis.points.tolist()]
    assert keys == sorted(set(keys))
    # each shell is a row range, and the ranges partition the rows by |n|^2
    bounds = basis.shells.bounds
    assert len(bounds) == basis.n_shells + 1 and bounds[0] == 0 and bounds[-1] == basis.size
    for s, n2 in enumerate(basis.shells.norms2):
        np.testing.assert_array_equal(np.arange(bounds[s], bounds[s + 1]),
                                      np.flatnonzero(basis.norms2 == n2))
    for i, p in enumerate(basis.points):
        assert basis.index_of(p) == i
        assert basis.index_of(tuple(p.tolist())) == i


def test_index_of_refuses_what_is_not_a_lattice_point():
    basis = build_basis(1, 1.0)
    assert basis.index_of((0, 0, 0)) == 0
    np.testing.assert_array_equal(basis.points[basis.index_of((1, -1, 0))], [1, -1, 0])
    # off the lattice, not integers, not three coordinates, not coordinates at all
    for n in [(2, 0, 0), (0.5, 0, 0), (1.0, 0, 0), np.zeros(3), (1, 0), (0, 0, 0, 0), ((1, 2), 3, 4),
              0, "abc", None]:
        with pytest.raises(KeyError):
            basis.index_of(n)


def test_point_cap_enforced():
    # each lattice has its own cap: cubic M <= 10, line N <= 4096
    with pytest.raises(DimensionCapError):
        build_basis(11, 1.0)  # 23^3 = 12167 > 9261
    assert build_basis(10, 1.0).size == MAX_CUBIC_POINTS == 9261
    assert build_basis_1d(MAX_LINE_POINTS, 1.0).size == 4096
    with pytest.raises(DimensionCapError):
        build_basis_1d(MAX_LINE_POINTS + 1, 1.0)


@pytest.mark.parametrize("lattice", [("M", m) for m in range(5)] + [("N", n) for n in range(1, 65)],
                         ids=lambda lat: f"{lat[0]}{lat[1]}")
def test_shells_match_the_unique_oracle(lattice):
    kind, size = lattice
    basis = build_basis(size, 0.7) if kind == "M" else build_basis_1d(size, 0.7)
    # the oracle: np.unique and one flatnonzero per shell
    distinct = np.unique(basis.norms2)
    members = [np.flatnonzero(basis.norms2 == m) for m in distinct]
    np.testing.assert_array_equal(basis.shells.norms2, distinct)
    assert basis.shells.norms2.dtype == distinct.dtype
    np.testing.assert_array_equal(basis.shells.energies, distinct * (0.7 * 0.7))
    bounds = basis.shells.bounds
    assert len(bounds) == len(members) + 1 and not bounds.flags.writeable
    for s, want in enumerate(members):
        np.testing.assert_array_equal(np.arange(bounds[s], bounds[s + 1]), want)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        build_basis(-1, 1.0)
    with pytest.raises(ValueError):
        build_basis(1, 0.0)
    with pytest.raises(ValueError):
        build_basis_1d(0, 1.0)


def test_1d_lattice_is_nondegenerate():
    basis = build_basis_1d(16, 1.0)
    assert basis.size == 16
    assert basis.n_shells == 16
    np.testing.assert_array_equal(np.diff(basis.shells.bounds), np.ones(16, dtype=int))
    np.testing.assert_array_equal(basis.shells.norms2, np.arange(1, 17) ** 2)


@given(m=st.integers(min_value=0, max_value=4), delta_k=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_shells_partition_the_lattice(m, delta_k):
    basis = build_basis(m, delta_k)
    rows = [np.flatnonzero(basis.norms2 == n2) for n2 in basis.shells.norms2]
    seen = np.concatenate(rows)
    assert len(seen) == basis.size
    assert set(seen.tolist()) == set(range(basis.size))
    # the rows of one shell's range share the bitwise-identical energy
    bounds = basis.shells.bounds
    for s in range(basis.n_shells):
        assert np.all(basis.energies[bounds[s]:bounds[s + 1]] == basis.shells.energies[s])
    # shell energies strictly increase
    assert np.all(np.diff(basis.shells.energies) > 0)
