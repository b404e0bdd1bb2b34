"""The banded LAPACK routines of the implicit stepper, bound through ctypes.

numpy >= 2's wheels map an OpenBLAS that exports all of LAPACK under
ILP64 names such as ``scipy_dgbsv_64_``.  :func:`banded_lapack` binds
``dgbsv`` and ``dgbtrs`` from the first OpenBLAS mapped into the process
(:func:`mapped_openblas`) that exports those names, once per process, so
the stepper needs no LAPACK wrapper module.  Where none does (no
``/proc/self/maps``, or a numpy built on another BLAS), it binds the same
routines from ``scipy.linalg.cython_lapack``, whose integers are LP64
whatever the platform, the one case that imports scipy.  The module also
holds numpy's OpenBLAS at one thread for a block (:func:`one_blas_thread`).
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np

#: dgbsv and dgbtrs of the ILP64 OpenBLAS that numpy >= 2's wheels ship.
#: Only these names fix the integer width; a library exporting plain
#: ``dgbsv_`` may take 32- or 64-bit integers, so none is bound by them.
_ILP64_ROUTINES = ("scipy_dgbsv_64_", "scipy_dgbtrs_64_")


def mapped_openblas() -> list[ctypes.CDLL]:
    """Every OpenBLAS mapped into this process, found in ``/proc/self/maps``.

    Empty where that file does not exist.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


#: (get, set) thread-count functions of the ILP64 OpenBLAS that numpy's
#: wheels ship, and of a plain OpenBLAS that numpy may be built on.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@contextmanager
def one_blas_thread():
    """Hold each OpenBLAS mapped with numpy's ILP64 or the plain thread
    functions at one thread in the block, at no measured cost, so numpy's
    products round alike on any host (two threads moved the Darcy sweep's
    full-scale ``v_bar_cell`` from ...3258 to ...3257 on 2 vCPUs)."""
    saved = []
    for lib in mapped_openblas():
        for get, put in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                saved.append((put, get()))
                put(1)
                break
    try:
        yield
    finally:
        for put, threads in saved:
            put(threads)


def _check(name: str, array: np.ndarray, dtype, shape=None) -> None:
    """Raise unless ``array`` is a writeable C-contiguous ``dtype`` array of
    ``shape``, so that LAPACK may write through its address."""
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise TypeError(f"{name} must be a {np.dtype(dtype)} array")
    if shape is not None and array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not (array.flags.c_contiguous and array.flags.writeable):
        raise ValueError(f"{name} must be C-contiguous and writeable")


def _check_band(systems: np.ndarray) -> tuple[int, int, int]:
    """(n_steps, N, Nd) of a stack of systems in LAPACK band storage."""
    _check("systems", systems, np.float64)
    if systems.ndim != 3 or systems.shape[2] % 3 != 1:
        raise ValueError("systems must be (n_steps, N, 3*Nd+1) band matrices")
    n_steps, n, width = systems.shape
    return n_steps, n, (width - 1) // 3


class BandedLapack:
    """``dgbsv`` and ``dgbtrs`` at two addresses, on integers ``int_type``.

    ``fortran_strings`` says whether ``dgbtrs`` takes the hidden length of
    its character argument after the others, as a Fortran symbol does.
    Each method checks its arrays' dtype, shape and contiguity before it
    passes their addresses.
    """

    def __init__(self, gbsv_address: int, gbtrs_address: int, int_type,
                 fortran_strings: bool):
        self.int_dtype = np.dtype(int_type)
        self._int = int_type
        pointer = ctypes.c_void_p
        self._gbsv = ctypes.CFUNCTYPE(None, *[pointer] * 10)(gbsv_address)
        lengths = [ctypes.c_size_t] if fortran_strings else []
        self._gbtrs = ctypes.CFUNCTYPE(None, *[pointer] * 11, *lengths)(
            gbtrs_address)
        self._lengths = (1,) if fortran_strings else ()

    def _integers(self, *values):
        """LAPACK integers holding ``values``, then their addresses."""
        held = [self._int(v) for v in values]
        return held, [ctypes.addressof(v) for v in held]

    def gbsv_chain(self, systems: np.ndarray, states: np.ndarray,
                   pivots: np.ndarray, initial: np.ndarray) -> tuple[int, int]:
        """Solve ``systems[n] x_n = x_{n-1}`` in turn, from ``x_{-1} = initial``.

        ``systems`` is (n_steps, N, 3*Nd+1): each ``systems[n].T`` is a
        Fortran-ordered band matrix, with Nd rows of fill-in above its
        2*Nd+1 diagonals, which ``dgbsv`` overwrites with its LU factors.
        ``states[n]`` receives x_n, solved in place, and ``pivots[n]``
        LAPACK's 1-based pivots.  Returns (0, n_steps), or at the first
        step n whose ``info`` is not zero, (info, n), leaving later steps
        unsolved.
        """
        n_steps, n, nd = _check_band(systems)
        _check("states", states, np.float64, (n_steps, n))
        _check("pivots", pivots, self.int_dtype, (n_steps, n))
        held, (n_, kl, ku, nrhs, ldab, ldb, info_at) = self._integers(
            n, nd, nd, 1, 3 * nd + 1, n, 0)
        info = held[-1]
        gbsv = self._gbsv
        ab, ab_step = systems.ctypes.data, systems.strides[0]
        b, b_step = states.ctypes.data, states.strides[0]
        piv, piv_step = pivots.ctypes.data, pivots.strides[0]
        previous = initial
        for step, state in enumerate(states):
            state[...] = previous
            gbsv(n_, kl, ku, nrhs, ab, ldab, piv, b, ldb, info_at)
            if info.value != 0:
                return info.value, step
            ab, piv, b = ab + ab_step, piv + piv_step, b + b_step
            previous = state
        return 0, n_steps

    def gbtrs_steps(self, factors: np.ndarray, pivots: np.ndarray,
                    rhs: np.ndarray, transpose: bool = False):
        """A function of ``step`` that solves ``rhs[step].T`` in place and
        returns LAPACK's ``info``; it keeps its arrays alive in ``arrays``.

        ``factors`` and ``pivots`` are as :meth:`gbsv_chain` left them;
        ``rhs`` is (n_steps, k, N), so each ``rhs[step].T`` is a
        Fortran-ordered (N, k) block of right-hand sides for that step.
        With ``transpose`` it solves with the transposed step matrix.
        """
        n_steps, n, nd = _check_band(factors)
        _check("pivots", pivots, self.int_dtype, (n_steps, n))
        _check("rhs", rhs, np.float64)
        if rhs.ndim != 3 or rhs.shape[0] != n_steps or rhs.shape[2] != n:
            raise ValueError(
                f"rhs has shape {rhs.shape}, expected ({n_steps}, k, {n})")
        held, (n_, kl, ku, nrhs, ldab, ldb, info_at) = self._integers(
            n, nd, nd, rhs.shape[1], 3 * nd + 1, n, 0)
        info = held[-1]
        trans = ctypes.c_char(b"T" if transpose else b"N")
        trans_at = ctypes.addressof(trans)
        gbtrs, lengths = self._gbtrs, self._lengths
        ab, ab_step = factors.ctypes.data, factors.strides[0]
        piv, piv_step = pivots.ctypes.data, pivots.strides[0]
        b, b_step = rhs.ctypes.data, rhs.strides[0]

        def solve(step: int) -> int:
            if not 0 <= step < n_steps:
                raise IndexError(f"step {step} outside 0..{n_steps - 1}")
            gbtrs(trans_at, n_, kl, ku, nrhs, ab + step * ab_step, ldab,
                  piv + step * piv_step, b + step * b_step, ldb, info_at,
                  *lengths)
            return info.value

        solve.arrays = (factors, pivots, rhs, held, trans)
        return solve


def openblas_banded_lapack(libraries) -> BandedLapack | None:
    """The ILP64 routines of the first of ``libraries`` that exports them,
    or None."""
    for lib in libraries:
        if all(hasattr(lib, name) for name in _ILP64_ROUTINES):
            gbsv, gbtrs = (ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
                           for name in _ILP64_ROUTINES)
            return BandedLapack(gbsv, gbtrs, ctypes.c_int64,
                                fortran_strings=True)
    return None


def scipy_banded_lapack() -> BandedLapack:
    """The routines of ``scipy.linalg.cython_lapack`` (LP64, C signatures)."""
    from scipy.linalg.cython_lapack import __pyx_capi__ as capsules

    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    gbsv, gbtrs = (get_pointer(capsules[name], get_name(capsules[name]))
                   for name in ("dgbsv", "dgbtrs"))
    return BandedLapack(gbsv, gbtrs, ctypes.c_int32, fortran_strings=False)


@functools.cache
def banded_lapack() -> BandedLapack:
    """This process's binding: a mapped OpenBLAS's, else scipy's."""
    return openblas_banded_lapack(mapped_openblas()) or scipy_banded_lapack()
