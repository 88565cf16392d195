"""Reference implementations the test suite checks production code against."""
