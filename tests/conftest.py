"""Fixtures shared by the tests of the compiled kernels (``rcpq._native``)."""

import shutil

import pytest

from rcpq import _native


@pytest.fixture(scope="module")
def build_kernel(tmp_path_factory):
    """Builds kernel ``name`` afresh: a compile or load error fails the test.

    Skips without ``cc``, or where the built library's probe finds no AVX2.
    """

    def build(name):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler (cc) on PATH")
        lib = tmp_path_factory.mktemp("kernel") / f"{name}.so"
        _native._build(_native.source_of(name).read_bytes(), lib)
        built = _native.open_kernel(name, lib)
        if built is None:
            pytest.skip("CPU without AVX2")
        return built

    return build


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An empty kernel cache directory, and a process that has loaded no kernel."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _native.kernel.cache_clear()
    yield tmp_path / "cache" / "rcpq"
    _native.kernel.cache_clear()
