"""The allocator pin at ``import repro``: idempotent, a no-op without glibc."""

import ctypes
import platform

import pytest

import repro  # noqa: F401  (runs the pin)
from repro import malloc


def _no_libc(*args, **kwargs):
    raise OSError("libc.so.6: cannot open shared object file")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_pinned_at_import_and_idempotent(monkeypatch):
    assert malloc.pin_malloc_thresholds() is True
    # Once pinned, a second call does not even load libc again.
    monkeypatch.setattr(ctypes, "CDLL", _no_libc)
    assert malloc.pin_malloc_thresholds() is True


def test_no_op_when_libc_cannot_be_loaded(monkeypatch):
    monkeypatch.setattr(malloc, "_pinned", False)
    monkeypatch.setattr(ctypes, "CDLL", _no_libc)
    assert malloc.pin_malloc_thresholds() is False
    assert malloc.pin_malloc_thresholds() is False
    assert malloc._pinned is False
