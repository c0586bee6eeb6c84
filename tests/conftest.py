import pytest


@pytest.fixture(autouse=True)
def _no_env_budget(monkeypatch):
    """Run every test at the default vertex caps, whatever the caller's
    HYPERSPECTRA_BUDGET; tests that need the variable set it themselves."""
    monkeypatch.delenv("HYPERSPECTRA_BUDGET", raising=False)
