from fractions import Fraction

import pytest

from torsod import (
    MorphismKind,
    classify,
    induced_fibration,
    make_datum,
    sigma,
    sigma_alpha,
    weighted_sum,
    weighted_sum_partial,
)
from torsod.errors import (
    DegenerateDatum,
    DuplicateRay,
    NonPrimitiveRay,
    NotCoprime,
    RelationViolated,
    SchemaError,
    SignPattern,
)


def half_datum(orders=(2, 2, 1)):
    return make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2), orders)


def test_datum_shape():
    d = half_datum()
    assert d.n == 2
    assert d.alpha == 2
    assert d.exceptional_ray == (1, 1)


def test_validate_relation():
    with pytest.raises(RelationViolated):
        make_datum(((1, 0), (1, 2), (1, 1)), (1, 2, -2), (2, 2, 1))


def test_validate_coprime():
    with pytest.raises(NotCoprime):
        make_datum(((1, 0), (1, 2), (1, 1)), (2, 2, -4), (2, 2, 1))


def test_validate_sign_pattern():
    # zero coefficient before a positive one
    with pytest.raises(SignPattern):
        make_datum(((1, 0, 0), (0, 0, 1), (1, 2, 0), (1, 1, 0)),
                   (1, 0, 1, -2), (2, 1, 2, 1))
    # positive last coefficient
    with pytest.raises(SignPattern):
        make_datum(((1, 0), (-1, 1), (0, -1)), (1, 1, 1), (1, 1, 1))


def test_validate_primitive_rays():
    with pytest.raises(NonPrimitiveRay):
        make_datum(((2, 0), (1, 2), (3, 2)), (1, 1, -1), (1, 1, 1))
    with pytest.raises(NonPrimitiveRay):
        make_datum(((1, 0), (0, 0), (1, 1)), (1, 1, -1), (1, 1, 1))


def test_validate_duplicates_and_shapes():
    with pytest.raises(DuplicateRay):
        make_datum(((1, 0), (1, 0), (1, 1)), (1, 1, -2), (2, 2, 1))
    with pytest.raises(SchemaError):
        make_datum(((1, 0), (1, 2)), (1, 1, -2), (2, 2, 1))
    with pytest.raises(SchemaError):
        make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2), (2, 2, 0))


def test_validate_independence():
    # relation holds but the first three rays are coplanar
    with pytest.raises(DegenerateDatum):
        make_datum(((1, 0, 0), (0, 1, 0), (2, 1, 0), (3, 2, 0)),
                   (1, 1, 1, -1), (1, 1, 1, 1))


def test_classify_trichotomy():
    assert classify(half_datum()).kind is MorphismKind.EXTRACTION
    assert classify(half_datum()).sigma == -1
    crepant = half_datum(orders=(1, 1, 1))
    assert classify(crepant).kind is MorphismKind.LOG_CREPANT
    assert classify(crepant).sigma == 0
    contraction = half_datum(orders=(1, 1, 2))
    assert classify(contraction).kind is MorphismKind.CONTRACTION
    assert classify(contraction).sigma == 1


def test_sigma_values():
    d = make_datum(((1, 0), (1, 3), (1, 1)), (2, 1, -3), (3, 3, 1))
    assert sigma(d) == -2
    assert sigma_alpha(d) == 1


def test_weighted_sum():
    d = half_datum()
    assert weighted_sum(d, (1, 1, 0)) == 1
    assert weighted_sum(d, (0, 0, 1)) == -2
    assert weighted_sum(d, (1, 1, 1)) == sigma(d)
    assert weighted_sum_partial(d, (3,)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        weighted_sum(d, (1, 1))


def test_induced_fibration_line_center():
    d = make_datum(((1, 0, 0), (1, 2, 0), (0, 0, 1), (1, 1, 0)),
                   (1, 1, 0, -2), (2, 2, 1, 1))
    fib = induced_fibration(d)
    # the divisor lattice has rank n - 1 = 2, the fiber lattice rank 1
    assert fib.proj_xd.target_rank == 2
    assert fib.proj_df.target_rank == 1
    assert fib.t_base == 1
    assert fib.reduced_coefficients == (1, 1)
    assert len(fib.rays_f) == d.n - d.alpha == 1


def test_induced_fibration_multiplicities():
    # third local ray hits the fiber direction with composite multiplicity 2
    d = make_datum(((1, 0, 0), (1, 2, 0), (1, 1, 2), (1, 1, 0)),
                   (1, 1, 0, -2), (2, 2, 1, 1))
    fib = induced_fibration(d)
    assert fib.s[0] * fib.t[2] == 2
