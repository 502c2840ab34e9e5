import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from props import (mat_mul, ref_class_key, ref_determinant, ref_rank_q,
                   solve_rational)

from torsod import (canned_example, canned_fan, example_names, fan_names,
                    fiber_model)
from torsod.lattice import (
    AbelianGroup,
    cokernel,
    determinant,
    diagonal_of,
    integer_kernel,
    mat_vec,
    primitivize,
    quotient_project,
    rank_q,
    smith_normal_form_full,
)
from torsod.oracle import _scan_kernel


def test_smith_normal_form_small():
    u, d, v, _ = smith_normal_form_full([[2, 0], [2, 4]])
    assert diagonal_of(d) == [2, 4]
    assert mat_mul(mat_mul(u, [[2, 0], [2, 4]]), v) == d


def test_smith_normal_form_divisibility_enforced():
    # naive pivoting would produce diag(2, 3); the chain forces diag(1, 6)
    u, d, v, _ = smith_normal_form_full([[2, 0], [0, 3]])
    assert diagonal_of(d) == [1, 6]


def test_smith_normal_form_documented_3x3():
    m = [[12, 6, 4], [3, 9, 6], [2, 16, 14]]
    _, d, _, _ = smith_normal_form_full(m)
    assert diagonal_of(d) == [1, 10, 30]


def test_smith_normal_form_rectangular_and_zero():
    _, d, _, _ = smith_normal_form_full([[0, 0, 0]])
    assert diagonal_of(d) == [0]
    _, d, _, _ = smith_normal_form_full([[4], [6]])
    assert diagonal_of(d) == [2]


def test_smith_full_inverses():
    m = [[5, 3], [1, 1]]
    u, d, v, uinv = smith_normal_form_full(m)
    assert mat_mul(u, uinv) == [[1, 0], [0, 1]]
    assert abs(determinant(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == d


def test_determinant():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant([[1]]) == 1
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("call", [smith_normal_form_full, cokernel,
                                  integer_kernel])
def test_smith_form_refuses_a_ragged_matrix(call):
    with pytest.raises(ValueError, match="ragged matrix"):
        call([[1, 2], [3]])


def _random_matrix(rng, rows, cols, entries=(-3, 3)):
    return [[rng.randint(*entries) for _ in range(cols)] for _ in range(rows)]


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    assert determinant([]) == ref_determinant([]) == 1
    for n in range(1, 6):
        for _ in range(60):
            mat = _random_matrix(rng, n, n, rng.choice([(-1, 1), (-9, 9)]))
            if n > 1 and rng.random() < 0.3:   # singular: repeat a row
                mat[rng.randrange(1, n)] = list(mat[0])
            assert determinant(mat) == ref_determinant(mat), mat


def test_rank_q_matches_the_fraction_reference():
    rng = random.Random(11)
    assert rank_q([]) == ref_rank_q([]) == 0        # no rows
    assert rank_q([[], []]) == ref_rank_q([[], []]) == 0
    for _ in range(400):
        rows, cols = rng.randint(0, 7), rng.randint(1, 7)
        mat = _random_matrix(rng, rows, cols, rng.choice([(-1, 1), (-5, 5)]))
        if rows and rng.random() < 0.5:
            # rank-deficient: a product through an inner dimension k
            k = rng.randint(0, min(rows, cols))
            left = _random_matrix(rng, rows, k)
            right = _random_matrix(rng, k, cols)
            mat = mat_mul(left, right) if k else [[0] * cols
                                                   for _ in range(rows)]
        if rows and rng.random() < 0.4:
            for j in rng.sample(range(cols), rng.randint(1, cols)):
                for row in mat:
                    row[j] = 0                  # all-zero column
        assert rank_q(mat) == ref_rank_q(mat), mat


def test_solve_rational():
    assert solve_rational([[2, 1], [1, 3]], [1, 2]) == (Fraction(1, 5),
                                                        Fraction(3, 5))
    assert solve_rational([[1, 2], [2, 4]], [1, 2]) is None
    assert solve_rational([], []) == ()


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
    # an integer solve is the preimage in the cokernel of the matrix
    assert cokernel([[2, 0], [0, 3]]).preimage([4, 9]) == (2, 3)
    assert cokernel([[2, 0], [0, 3]]).preimage([1, 0]) is None
    # underdetermined: any valid solution is acceptable
    sol = cokernel([[1, 2]]).preimage([5])
    assert sol is not None and sol[0] + 2 * sol[1] == 5
    assert cokernel([[2, 4]]).preimage([3]) is None


def test_preimage_on_random_matrices():
    rng = random.Random(13)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols, rng.choice([(-1, 1), (-6, 6)]))
        if rng.random() < 0.4:   # rank-deficient: through an inner dimension
            k = rng.randint(1, min(rows, cols))
            mat = mat_mul(_random_matrix(rng, rows, k),
                          _random_matrix(rng, k, cols))
        group = cokernel(mat)
        image = mat_vec(mat, [rng.randint(-5, 5) for _ in range(cols)])
        p = group.preimage(image)
        assert p is not None and mat_vec(mat, p) == image, mat
        vec = [rng.randint(-5, 5) for _ in range(rows)]
        p = group.preimage(vec)
        assert p is None or mat_vec(mat, p) == vec, (mat, vec)
        # one Smith-coordinate map answers every membership question alike
        for v in (image, vec):
            member = group.contains(v)
            assert member == (group.preimage(v) is not None), (mat, v)
            assert member == (not any(group.class_key(v))), (mat, v)
            rep = group.reduce(v)
            assert group.reduce(rep) == rep, (mat, v)
            assert group.class_key(rep) == group.class_key(v), (mat, v)


def test_class_key_separates_exactly_the_classes():
    rng = random.Random(28)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        mat = _random_matrix(rng, rows, cols, rng.choice([(-1, 1), (-6, 6)]))
        group = cokernel(mat)
        vec = [rng.randint(-5, 5) for _ in range(rows)]
        key = group.class_key(vec)
        assert len(key) == group.free_rank + len(group.invariant_factors)
        shift = mat_vec(mat, [rng.randint(-3, 3) for _ in range(cols)])
        assert group.class_key([a + b for a, b in zip(vec, shift)]) == key
        other = [rng.randint(-5, 5) for _ in range(rows)]
        same = group.contains([a - b for a, b in zip(vec, other)])
        assert (group.class_key(other) == key) == same, (mat, vec, other)
    with pytest.raises(ValueError):
        cokernel([[2, 0], [0, 4]]).class_key((1,))


def _catalog_groups():
    """(name, class group) of every catalog fan: the canned fans and the
    source, target and fiber fans of every canned extraction."""
    groups = [(name, _scan_kernel(canned_fan(name)).classes)
              for name in fan_names()]
    for name in example_names():
        pair = canned_example(name)
        for role, fan in (("source", pair.fan_x), ("target", pair.fan_y),
                          ("fiber", fiber_model(pair).fan)):
            groups.append((f"{name} {role}", _scan_kernel(fan).classes))
    return groups


def test_class_key_matches_the_smith_coordinate_reference():
    rng = random.Random(38)
    for name, group in _catalog_groups():
        for _ in range(200):
            vec = [rng.randint(-9, 9) for _ in range(group.ambient_rank)]
            assert group.class_key(vec) == ref_class_key(group, vec), name
        with pytest.raises(ValueError):
            group.class_key((0,) * (group.ambient_rank + 1))


def test_box_class_keys_follow_the_product_order():
    groups = [group for name, group in _catalog_groups()
              if name.split()[0] in ("a1-half", "a2-third", "a1-half-line")]
    groups.append(cokernel([[2, 0], [0, 4]]))            # finite, torsion
    rng = random.Random(380)
    groups += [cokernel(_random_matrix(rng, rng.randint(1, 4),
                                       rng.randint(1, 3), (-6, 6)))
               for _ in range(40)]
    assert any(not g.ambient_rank for g in groups)        # rank-0 fiber
    assert any(g.free_rank for g in groups)
    assert any(g.invariant_factors for g in groups)
    assert any(not g.free_rank and g.invariant_factors for g in groups)
    for group in groups:
        for bound in range(3):
            box = product(range(-bound, bound + 1), repeat=group.ambient_rank)
            assert list(group.box_class_keys(bound)) == [
                group.class_key(k) for k in box], (group, bound)


def test_cokernel_pinned_group():
    # Z^3 / span{(2,2,1), (0,4,1)} = Z x Z/2
    group = cokernel([[2, 0], [2, 4], [1, 1]])
    assert group.free_rank == 1
    assert group.invariant_factors == (2,)
    # classes() gives the two torsion classes and leaves the free part out
    reps = group.classes()
    assert len(reps) == 2
    assert len(set(reps)) == 2
    for rep in reps:
        assert group.reduce(rep) == rep


def test_cokernel_finite_group():
    group = cokernel([[2, 0], [0, 4]])
    assert group.free_rank == 0
    assert group.invariant_factors == (2, 4)
    assert prod(group.invariant_factors) == 8
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


def test_quotient_project_torsion_free_case():
    proj = quotient_project(2, [(1, 0)])
    assert proj.target_rank == 1
    assert proj.apply((0, 3)) == (3,) or proj.apply((0, 3)) == (-3,)


def test_quotient_project_no_generators():
    proj = quotient_project(3, [])
    assert proj.target_rank == 3
    assert proj.apply((1, 2, 3)) == (1, 2, 3)
