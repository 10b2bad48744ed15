import pytest

from pmpkit import kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # run the kernels once so timed tests measure steady-state run time
    kernels.warm_up()
