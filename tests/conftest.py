import pytest

from torsod import canned_example, example_names, make_datum


@pytest.fixture(scope="session")
def a1_half():
    return canned_example("a1-half")


@pytest.fixture(scope="session")
def a2_third():
    return canned_example("a2-third")


@pytest.fixture(scope="session")
def a1_half_line():
    return canned_example("a1-half-line")


@pytest.fixture(scope="session")
def extraction_pairs():
    pairs = [canned_example(name) for name in example_names()]
    out = []
    for pair in pairs:
        from torsod import classify, MorphismKind
        if classify(pair.datum).kind is MorphismKind.EXTRACTION:
            out.append(pair)
    return out


@pytest.fixture(scope="session")
def twist_datum():
    # A curve-center model whose restricted-class lattice is a strict
    # sublattice of the exact transfer lattice, so block merging actually
    # fires and the fiber picks up a nontrivial class group (order 2).
    return make_datum(
        ((1, 0, 0), (1, 2, 0), (1, 1, 2), (1, 1, 0)),
        (1, 1, 0, -2),
        (2, 2, 1, 1),
    )


@pytest.fixture(scope="session")
def stress_datum():
    # The 5-ray fuzz datum that the benchmark runs through `sod --box 6`:
    # 756 spanning classes, 54 blocks, a fiber class group of order 6.
    return make_datum(
        ((1, 0, 0, 0), (-1, 1, 0, 0), (-1, 2, 1, 0), (0, 1, 1, 1),
         (-2, 5, 2, 0)),
        (1, 1, 2, 0, -1),
        (6, 5, 6, 6, 1),
    )
