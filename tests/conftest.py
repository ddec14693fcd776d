from fractions import Fraction
from itertools import permutations

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


def _levi_civita(i, j, k):
    return (i - j) * (j - k) * (k - i) // 2


@pytest.fixture()
def euclidean3_spec():
    """e(3) = so(3) + R^3 with integer constants: [L_i, L_j] = eps L_k and
    [L_i, T_j] = eps T_k. Not compact: the Killing form vanishes on R^3."""
    entries = []
    for i, j, k in permutations(range(3)):
        e = _levi_civita(i, j, k)
        entries += [[i, j, k, e], [i, j + 3, k + 3, e], [j + 3, i, k + 3, -e]]
    return {"name": "e(3)", "dim": 6, "structure": entries}


@pytest.fixture()
def heisenberg_spec():
    """[e0, e1] = e2: nilpotent, so its Killing form is zero."""
    return {"name": "heis", "dim": 3,
            "structure": [[0, 1, 2, 1], [1, 0, 2, -1]]}
