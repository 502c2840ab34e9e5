import re
from fractions import Fraction

import pytest

from torsod import (
    MorphismKind,
    classify,
    make_datum,
    sigma,
    sigma_alpha,
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
from torsod.extraction import koszul_corners

from props import weighted_sum, weighted_sum_partial


def half_datum(orders=(2, 2, 1)):
    return make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2), orders)


def test_datum_shape():
    d = half_datum()
    assert d.n == 2
    assert d.alpha == 2
    assert d.rays[-1] == (1, 1)


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


def test_make_datum_refuses_non_integers():
    with pytest.raises(TypeError):
        make_datum(((1, 0), (1, 2.0), (1, 1)), (1, 1, -2), (2, 2, 1))
    with pytest.raises(TypeError):
        make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2.5), (2, 2, 1))
    with pytest.raises(TypeError):
        half_datum(orders=(2, 2, Fraction(1)))


@pytest.mark.parametrize("rays, coefficients, orders, error, fragment", [
    (((1,),), (1,), (1,), SchemaError, "datum needs at least two rays"),
    (((1, 0), (1, 2), (1, 1)), (1, 1), (2, 2, 1), SchemaError,
     "expected 3 coefficients, got 2"),
    (((1, 0), (1, 2), (1, 1)), (1, 1, -2), (2, 2), SchemaError,
     "expected 3 orders, got 2"),
    (((1, 0), (1, 1), (1, 2)), (-1, 2, -1), (1, 1, 1), SignPattern,
     "a[0] = -1 must be positive"),
], ids=["one-ray", "coefficients", "orders", "first-sign"])
def test_validate_names_each_refusal(rays, coefficients, orders, error,
                                     fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        make_datum(rays, coefficients, orders)


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


def test_koszul_corners_in_bitmask_order():
    assert koszul_corners(0) == [()]
    assert koszul_corners(2) == [(), (0,), (1,), (0, 1)]
    for alpha in range(1, 6):
        assert koszul_corners(alpha) == [
            tuple(i for i in range(alpha) if mask >> i & 1)
            for mask in range(1 << alpha)]
