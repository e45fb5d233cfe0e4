import pytest
from hypothesis import settings

import quandlekit as qk

# One profile for every property test: the same examples on every run, and
# no per-example deadline (first calls pay for imports and caches).
settings.register_profile("quandlekit", derandomize=True, deadline=None)
settings.load_profile("quandlekit")


@pytest.fixture(scope="session")
def small_groups():
    """One representative of every isomorphism class of groups of order <= 8."""
    z2 = qk.cyclic_group(2)
    return {
        "Z1": qk.cyclic_group(1),
        "Z2": qk.cyclic_group(2),
        "Z3": qk.cyclic_group(3),
        "Z4": qk.cyclic_group(4),
        "Z2xZ2": qk.direct_product(z2, z2),
        "Z5": qk.cyclic_group(5),
        "Z6": qk.cyclic_group(6),
        "S3": qk.symmetric_group(3),
        "Z7": qk.cyclic_group(7),
        "Z8": qk.cyclic_group(8),
        "Z2xZ4": qk.direct_product(z2, qk.cyclic_group(4)),
        "Z2xZ2xZ2": qk.direct_product(z2, qk.direct_product(z2, z2)),
        "D4": qk.dihedral_group(4),
        "Q8": qk.quaternion_group(),
    }
