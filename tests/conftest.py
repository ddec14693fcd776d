from fractions import Fraction

import pytest

from orbitcheck import catalog, zoo


def _space(entry_id):
    return catalog.catalog_instantiate(entry_id, seed=0)


@pytest.fixture(scope="session")
def so5_u2():
    return _space("go-3-k2")


@pytest.fixture(scope="session")
def so8_g2():
    return _space("go-1")


@pytest.fixture(scope="session")
def su3_su2():
    return _space("go-6-m2n1")


@pytest.fixture(scope="session")
def sp2_sp1u1():
    return _space("go-8-n1")


@pytest.fixture(scope="session")
def so9_spin7():
    return _space("go-5")


@pytest.fixture(scope="session")
def sp3_principal():
    return _space("t1-V.10")


@pytest.fixture(scope="session")
def so9_tensor():
    return _space("t1-V.1-m3n3")


@pytest.fixture()
def broken_su3_spec():
    """su(3) as a JSON spec with its first bracket and that bracket's
    antisymmetric partner scaled by 3/2: antisymmetric, not a Lie algebra."""
    data = zoo.classical("su", 3).to_json_dict()
    i, j, k, _ = data["structure"][0]
    for entry in data["structure"]:
        if tuple(entry[:3]) in ((i, j, k), (j, i, k)):
            value = Fraction(entry[3]) * Fraction(3, 2)
            entry[3] = f"{value.numerator}/{value.denominator}"
    return data
