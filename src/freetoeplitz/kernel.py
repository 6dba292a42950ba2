"""Kernel selection: compiled extension when available, else pure Python."""

from __future__ import annotations

from . import _pure

try:
    from ._speedups import form_factors

    KERNEL_IMPL = "compiled"
except ImportError:
    form_factors = _pure.form_factors
    KERNEL_IMPL = "pure"
