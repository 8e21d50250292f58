import pytest

from exobench.dynamics import (ACTUATED_JOINTS, CompensationTables,
                               LookupTable1D)


@pytest.fixture
def zero_tables():
    """Compensation tables that add nothing: one flat zero table serves
    every actuated joint's friction and ripple."""
    flat = LookupTable1D([-10.0, 10.0], [0.0, 0.0])
    return CompensationTables(friction=dict.fromkeys(ACTUATED_JOINTS, flat),
                              ripple=dict.fromkeys(ACTUATED_JOINTS, flat))
