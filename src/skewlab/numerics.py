"""numpy's build, OpenBLAS and SIMD dispatch: the platform outputs keep their bits on."""

import ctypes

import numpy as np


def _blas(name: str, restype=ctypes.c_int, *argtypes):
    try:  # numpy's OpenBLAS function scipy_openblas_<name>64_, or a no-op where it has none
        from numpy._core import _multiarray_umath
        function = getattr(ctypes.CDLL(_multiarray_umath.__file__), f"scipy_openblas_{name}64_")
    except (ImportError, OSError, AttributeError):
        return lambda *args: None
    function.restype, function.argtypes = restype, argtypes
    return function


def blas_threads(count: int | None = None) -> int | None:
    """OpenBLAS's thread count before the call, which then becomes ``count`` if given."""
    before = _blas("get_num_threads")()
    if count is not None:
        _blas("set_num_threads", None, ctypes.c_int)(count)
    return before


def platform_record() -> dict:
    """numpy's version, OpenBLAS's config, core and threads, and float64 SIMD targets."""
    config, core = (_blas(f"get_{name}", ctypes.c_char_p)() for name in ("config", "corename"))
    dispatch = np.lib.introspect.opt_func_info(func_name="^(exp|log|tanh)$", signature="float64")
    return {"numpy": np.__version__, "blas_config": config and config.decode(),
            "blas_core": core and core.decode(), "blas_threads": blas_threads(), "dispatch": dispatch}
