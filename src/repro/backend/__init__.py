"""Execution backends: the SVE-substitute layer.

The paper's independent variable is *code generation*: the same Fortran
kernels compiled scalar (no SVE) or vectorized (SVE, 512-bit packed
doubles).  Python cannot express vector intrinsics, so this package
substitutes the same transformation one level up:

* :class:`~repro.backend.scalar.ScalarBackend` executes every primitive
  as an explicit element-by-element Python loop -- the analogue of
  unvectorized scalar code.
* :class:`~repro.backend.vector.VectorBackend` executes the same
  primitives as whole-array NumPy operations (in place where possible)
  -- the analogue of SVE codegen, including a configurable
  vector-length parameter (128-2048 bit, the Armv8-A VLA range) used
  for SIMD instruction accounting.
* :class:`~repro.backend.jit.JitBackend` compiles the same loops with
  Numba (optional dependency) -- the "perfect codegen" tier: fused
  single-pass kernels free of interpreter and NumPy per-operator
  overhead.

All backends produce *bit-identical results* for every elementwise and
stencil primitive (asserted by the test suite); reductions agree up to
summation order.  Only the execution strategy differs, which is
precisely the SVE-on/SVE-off contract.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("Backend",),
    ".dispatch": (
        "FUSED_PRIMITIVES", "available_backends", "default_backend", "get_backend",
        "native_fused_ops", "register_backend", "set_default_backend", "use_backend",
    ),
    ".jit": ("JitBackend", "numba_available"),
    ".scalar": ("ScalarBackend",),
    ".vector": ("VectorBackend",),
})

__all__ = [
    "Backend",
    "ScalarBackend",
    "VectorBackend",
    "JitBackend",
    "numba_available",
    "get_backend",
    "register_backend",
    "available_backends",
    "default_backend",
    "set_default_backend",
    "use_backend",
    "FUSED_PRIMITIVES",
    "native_fused_ops",
]
