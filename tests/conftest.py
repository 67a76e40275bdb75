import pytest


@pytest.fixture
def clean_caches():
    """Every library memo empty as the test starts and after it ends."""
    from leakyhurwitz.verify import clear_caches
    clear_caches()
    yield
    clear_caches()
