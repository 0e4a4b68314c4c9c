import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab.basis import (
    MAX_POINTS,
    build_basis,
    build_basis_1d,
)
from lelab.errors import DimensionCapError


def test_cubic_m1_size_and_shells():
    basis = build_basis(1, 1.0)
    assert basis.size == 27
    assert basis.n_shells == 4
    np.testing.assert_array_equal(basis.shells.norms2, [0, 1, 2, 3])
    np.testing.assert_array_equal(basis.shells.degeneracies, [1, 6, 12, 8])
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
    np.testing.assert_array_equal(b.shells.members[0], [0])


def test_lexicographic_order_and_index_of():
    basis = build_basis(1, 1.0)
    np.testing.assert_array_equal(basis.points[0], [-1, -1, -1])
    np.testing.assert_array_equal(basis.points[-1], [1, 1, 1])
    for i in (0, 13, 26):
        assert basis.index_of(basis.points[i]) == i
    assert basis.index_of((0, 0, 0)) == 13
    with pytest.raises(KeyError):
        basis.index_of((2, 0, 0))


def test_point_cap_enforced():
    with pytest.raises(DimensionCapError):
        build_basis(8, 1.0)  # 17^3 = 4913 > 4096
    assert build_basis(7, 1.0).size == 3375
    with pytest.raises(DimensionCapError):
        build_basis_1d(MAX_POINTS + 1, 1.0)


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
    np.testing.assert_array_equal(basis.shells.degeneracies, np.ones(16, dtype=int))
    np.testing.assert_array_equal(basis.shells.norms2, np.arange(1, 17) ** 2)


@given(m=st.integers(min_value=0, max_value=4), delta_k=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_shells_partition_the_lattice(m, delta_k):
    basis = build_basis(m, delta_k)
    seen = np.concatenate([np.asarray(mem) for mem in basis.shells.members])
    assert len(seen) == basis.size
    assert set(seen.tolist()) == set(range(basis.size))
    # members of one shell share the bitwise-identical energy
    for s, mem in enumerate(basis.shells.members):
        assert np.all(basis.energies[mem] == basis.shells.energies[s])
    # shell energies strictly increase
    assert np.all(np.diff(basis.shells.energies) > 0)
