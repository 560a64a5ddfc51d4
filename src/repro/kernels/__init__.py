"""Relaxation-kernel registry.

This package is the single home of the kernel registry (:data:`KERNELS`,
:func:`check_kernel`, :func:`resolve_kernel`) shared by ``capforest``,
``parallel_capforest``, the CLI, and the API:

``"scalar"``
    Reference kernel, one Python loop iteration per arc.
``"vector"``
    Numpy batch relaxation.
``"compiled"``
    The name of a retired JIT tier, still accepted: :func:`resolve_kernel`
    runs it as :data:`COMPILED_FALLBACK` and reports the substitution,
    which drivers surface as a ``kernel_fallback`` trace event and
    ``kernel_fallback`` stats key.
"""

from __future__ import annotations

#: the kernel registry — the one source of truth for every ``kernel=`` arg
KERNELS = ("scalar", "vector", "compiled")

#: what a ``"compiled"`` request runs as
COMPILED_FALLBACK = "vector"

_FALLBACK_NOTE = f"compiled tier unavailable (retired); running {COMPILED_FALLBACK}"


def check_kernel(kernel: str) -> str:
    """Validate a kernel name against the registry (shared error message)."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def resolve_kernel(kernel: str, tracer=None) -> tuple[str, str | None]:
    """Resolve a requested kernel to the one that will run.

    Returns ``(resolved, fallback_reason)`` — ``fallback_reason`` is
    ``None`` unless ``"compiled"`` was requested, in which case the request
    runs as :data:`COMPILED_FALLBACK` and one ``kernel_fallback`` trace
    event is emitted (when a tracer is given).  Drivers resolve once at
    solve start and pass the resolved name down, so a multi-round solve
    emits at most one note.
    """
    check_kernel(kernel)
    if kernel != "compiled":
        return kernel, None
    if tracer is not None:
        tracer.emit(
            "kernel_fallback",
            requested="compiled",
            resolved=COMPILED_FALLBACK,
            reason=_FALLBACK_NOTE,
        )
    return COMPILED_FALLBACK, _FALLBACK_NOTE


__all__ = ["COMPILED_FALLBACK", "KERNELS", "check_kernel", "resolve_kernel"]
