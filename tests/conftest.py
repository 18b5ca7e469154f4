import numpy as np
import pytest

import bml
from bml import BMLParams, GridSpec


@pytest.fixture(autouse=True)
def _clear_bml_caches():
    """Empty bml's module-level lru caches (kernels, target coefficient
    tables, roots of unity, quadrature nodes) after each test, so that no
    test's outcome depends on which tests ran before it."""
    yield
    for module in (bml.laurent, bml.membership, bml.integral_repr):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture(scope="session")
def fast_grid():
    """Coarser grid for unit tests; acceptance tests use the defaults."""
    return GridSpec(radii=tuple(0.99 * k / 6 for k in range(1, 7)), angles=64, boundary_x=64)


@pytest.fixture(scope="session")
def unit_params():
    return BMLParams(1.0, 1.0, 1.0, 0.0)
