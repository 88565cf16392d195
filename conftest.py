"""Repository-wide pytest configuration.

Being at the repository root, this file puts the root on ``sys.path``, so
the unit tests and the benchmark harness import the shared reference
integrators as ``tests.oracles``.  It also registers the custom markers
the suites use.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: end-to-end integration test that runs real "
        "characterization flows (deselect with -m 'not slow')")
