"""Backend selection for the hot kernels.

At import time the compiled ``_ckernels`` extension is preferred when it
is importable; the pure-Python ``_kernels`` module is the fallback.  Set
``QUIDDITY_PURE_PYTHON=1`` to force the fallback.  ``set_backend`` exists
for the benchmark and the parity tests; library code always goes through
the module-level wrappers so a switch takes effect immediately.
"""

from __future__ import annotations

import os

from . import _kernels as _py

try:
    from . import _ckernels as _c  # type: ignore[attr-defined]
except ImportError:
    _c = None

_active = _py if (_c is None or os.environ.get("QUIDDITY_PURE_PYTHON") == "1") else _c


def backend() -> str:
    """Name of the active backend: ``"c"`` or ``"python"``."""
    return _active.BACKEND_NAME


def available_backends() -> tuple[str, ...]:
    return ("python", "c") if _c is not None else ("python",)


def get_module(name: str):
    if name == "python":
        return _py
    if name == "c":
        if _c is None:
            raise ValueError("compiled backend is not available")
        return _c
    raise ValueError(f"unknown backend {name!r}")


def set_backend(name: str) -> None:
    global _active
    _active = get_module(name)


def canonical_form(seq: tuple) -> tuple:
    try:
        return _active.canonical_form(seq)
    except OverflowError:
        return _py.canonical_form(seq)


def cyclic_contains(word: tuple, pat: tuple) -> bool:
    try:
        return _active.cyclic_contains(word, pat)
    except OverflowError:
        return _py.cyclic_contains(word, pat)


def linear_contains(seq: tuple, pat: tuple) -> bool:
    try:
        return _active.linear_contains(seq, pat)
    except OverflowError:
        return _py.linear_contains(seq, pat)


def insert_fanout(rep: tuple) -> list:
    try:
        return _active.insert_fanout(rep)
    except OverflowError:
        return _py.insert_fanout(rep)


def next_level(words: tuple) -> tuple:
    if _active is _py:
        return _py.next_level(words)
    # the compiled backend has no level kernel: one fan-out per parent
    children = set()
    for word in words:
        children.update(insert_fanout(word))
    return tuple(sorted(children))
