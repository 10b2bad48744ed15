import pytest

import pmpkit
from pmpkit import linear_tmin, nonlinear


@pytest.mark.parametrize("module", [pmpkit, nonlinear, linear_tmin],
                         ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
