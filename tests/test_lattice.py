import pytest

from torsod.lattice import (
    AbelianGroup,
    cokernel,
    determinant,
    diagonal_of,
    integer_kernel,
    mat_mul,
    primitivize,
    quotient_project,
    smith_normal_form_full,
    solve_integer,
)


def test_smith_normal_form_small():
    u, d, v, _, _ = smith_normal_form_full([[2, 0], [2, 4]])
    assert diagonal_of(d) == [2, 4]
    assert mat_mul(mat_mul(u, [[2, 0], [2, 4]]), v) == d


def test_smith_normal_form_divisibility_enforced():
    # naive pivoting would produce diag(2, 3); the chain forces diag(1, 6)
    u, d, v, _, _ = smith_normal_form_full([[2, 0], [0, 3]])
    assert diagonal_of(d) == [1, 6]


def test_smith_normal_form_documented_3x3():
    m = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
    _, d, _, _, _ = smith_normal_form_full(m)
    assert diagonal_of(d) == [1, 10, 30]


def test_smith_normal_form_rectangular_and_zero():
    _, d, _, _, _ = smith_normal_form_full([[0, 0, 0]])
    assert diagonal_of(d) == [0]
    _, d, _, _, _ = smith_normal_form_full([[4], [6]])
    assert diagonal_of(d) == [2]


def test_smith_full_inverses():
    m = [[5, 3], [1, 1]]
    u, d, v, uinv, vinv = smith_normal_form_full(m)
    assert mat_mul(u, uinv) == [[1, 0], [0, 1]]
    assert mat_mul(vinv, v) == [[1, 0], [0, 1]]
    assert mat_mul(mat_mul(u, m), v) == d


def test_determinant():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant([[1]]) == 1
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_primitivize():
    assert primitivize((4, -6)) == ((2, -3), 2)
    assert primitivize((0, 7, 0)) == ((0, 1, 0), 7)
    assert primitivize((-3,)) == ((-1,), 3)
    with pytest.raises(ValueError):
        primitivize((0, 0))


def test_integer_kernel():
    basis = integer_kernel([[1, 1, 1]])
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0
    assert integer_kernel([[1, 0], [0, 1]]) == []


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == (2, 3)
    assert solve_integer([[2, 0], [0, 3]], [1, 0]) is None
    # underdetermined: any valid solution is acceptable
    sol = solve_integer([[1, 2]], [5])
    assert sol is not None and sol[0] + 2 * sol[1] == 5
    assert solve_integer([[2, 4]], [3]) is None


def test_cokernel_pinned_group():
    # Z^3 / span{(2,2,1), (0,4,1)} = Z x Z/2
    group = cokernel([[2, 0], [2, 4], [1, 1]])
    assert group.free_rank == 1
    assert group.invariant_factors == (2,)
    assert group.order() is None


def test_cokernel_finite_group():
    group = cokernel([[2, 0], [0, 4]])
    assert group.free_rank == 0
    assert group.invariant_factors == (2, 4)
    assert group.order() == 8
    reps = group.classes()
    assert len(reps) == 8
    assert len(set(reps)) == 8
    for rep in reps:
        assert group.reduce(rep) == rep


def test_group_reduce_and_contains():
    group = cokernel([[2, 0], [0, 4]])
    assert group.reduce((2, 0)) == (0, 0)
    assert group.reduce((3, 5)) == group.reduce((1, 1))
    assert group.contains((4, 8))
    assert not group.contains((1, 0))


def test_quotient_project_saturates():
    proj = quotient_project(2, [(2, 0)])
    assert proj.target_rank == 1
    assert proj.apply((2, 0)) == (0,)
    # saturation also kills the primitive generator underneath
    assert proj.apply((1, 0)) == (0,)
    with pytest.raises(ValueError):
        quotient_project(2, [(2, 0)], saturate=False)


def test_quotient_project_torsion_free_case():
    proj = quotient_project(2, [(1, 0)], saturate=False)
    assert proj.target_rank == 1
    assert proj.apply((0, 3)) == (3,) or proj.apply((0, 3)) == (-3,)


def test_quotient_project_no_generators():
    proj = quotient_project(3, [])
    assert proj.target_rank == 3
    assert proj.apply((1, 2, 3)) == (1, 2, 3)
