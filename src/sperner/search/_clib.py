"""ctypes bindings of the compiled search kernels (ckernels.c).

`Library(path)` loads one built copy of the C library, which exports
four functions, one per kernel, and exposes the kernel contract of
`_kernels_py`: the same arguments, and results that compare `==`-equal,
labelings returned as bytes like theirs.  The annealer places the proper
masks of its ground, 1..2**n - 2, as the pure one does.  ctypes releases
the interpreter lock for the length of each call, so annealing chains on
separate threads run in parallel.

C has no bounds checks, so every argument that sizes a buffer or indexes
one is checked here first; a bad one raises ValueError before the call.
Lists cross as typed arrays that C reads in place and that check their
values; no list value or exact floor wraps.  Counts, budgets and targets
are clamped into int64, since ctypes would wrap them; annealer values
cross as _VALUE_LIMBS 32-bit limbs, wide enough for every product of its counts.
Deadlines are passed as seconds left, so the library can measure them on
its own monotonic clock.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from ctypes import (POINTER, byref, c_char_p, c_double, c_int, c_int64, c_uint8,
                    c_uint32, c_uint64)

from ..lattice import MAX_GROUND, MAX_LABEL

_WORD = 64
_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1
_VALUE_LIMBS = 160  # ckernels.c VALUE_LIMBS
# the Dedekind numbers, the upsets of P([n]) for n = 0..6, where one
# 64-bit word per family runs out (ckernels.c UPSET_MAX_GROUND)
_UPSET_COUNTS = (2, 3, 6, 20, 168, 7581, 7828354)

_SIGNATURES = {
    "sperner_comp_scan": (None, [
        c_int64, POINTER(c_uint64), POINTER(c_int64),
        c_int64, POINTER(c_uint64), POINTER(c_int64), c_int,
        POINTER(c_int64), POINTER(c_int64), POINTER(c_int64)]),
    "sperner_exact_search": (c_int, [
        c_int, c_int, c_int, POINTER(c_int64), POINTER(c_uint64), c_int64,
        c_int64, c_int64, c_int, c_double,
        POINTER(c_int64), POINTER(c_uint8), POINTER(c_int64),
        POINTER(c_int), POINTER(c_int)]),
    "sperner_anneal_chain": (c_int, [
        c_int, c_int, c_int, c_int, c_char_p, c_uint64, c_int64,
        c_double, c_double, c_int64, POINTER(c_uint32), c_int, c_double,
        POINTER(c_uint32), POINTER(c_uint8), POINTER(c_int64), POINTER(c_uint64)]),
    "sperner_upset_orbits": (c_int64, [
        c_int, c_int64, POINTER(c_uint64), POINTER(c_int64), POINTER(c_int64)]),
}


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _words(values, message: str, bits: int | None = None):
    """The ints of values as a C view of one array: int64, or uint64 below
    bit `bits` if given.  Any other value raises ValueError(message)."""
    if isinstance(values, (bytes, bytearray)):
        values = list(values)  # array() would read raw machine words
    try:
        words = array("q" if bits is None else "Q", values)
    except OverflowError:
        raise ValueError(message) from None
    _check(bits is None or not (words and max(values) >> bits), message)
    return ((c_int64 if bits is None else c_uint64) * len(words)).from_buffer(words)


def _int64(value: int) -> int:
    """A count, budget or target clamped into int64, whose ends no search reaches."""
    return max(-_INT64_MAX - 1, min(value, _INT64_MAX))


def _time_left(deadline) -> tuple[int, float]:
    if not deadline:
        return 0, 0.0
    return 1, deadline - time.monotonic()


class Library:
    """The kernels of one compiled library file."""

    BACKEND = "compiled"

    def __init__(self, path: str):
        try:
            lib = ctypes.CDLL(path)
            fns = {name: getattr(lib, name) for name in _SIGNATURES}
        except (OSError, AttributeError) as exc:  # not a library, or a stale one
            raise ImportError(f"cannot load the compiled kernels at {path}: {exc}") from exc
        for name, (restype, argtypes) in _SIGNATURES.items():
            fns[name].restype = restype
            fns[name].argtypes = argtypes
        self._lib = lib

    def upset_orbits(self, n):
        """Same contract as the pure version, for n up to 6, the largest
        ground whose families fit the kernel's one 64-bit word, into
        buffers of the Dedekind number's length."""
        _check(0 <= n < len(_UPSET_COUNTS),
               f"upset_orbits needs 0 <= n <= {len(_UPSET_COUNTS) - 1}, got {n}")
        cap = _UPSET_COUNTS[n]
        ups = (c_uint64 * cap)()
        firsts = (c_int64 * cap)()
        n_firsts = c_int64()
        count = self._lib.sperner_upset_orbits(n, cap, ups, firsts, byref(n_firsts))
        return ups[:count], firsts[:n_firsts.value]

    def comp_scan(self, upsets, usizes, downsets, dsizes, total):
        """Same contract as the pure version: per intersection size t, the
        minimum |U| + |D| - t and the first pair in scan order attaining it."""
        _check(0 <= total <= _WORD, f"comp_scan needs total <= {_WORD}, got {total}")
        _check(len(usizes) == len(upsets) and len(dsizes) == len(downsets),
               "comp_scan needs one size per upset and per downset")
        bitsets = f"comp_scan bitsets must lie below bit {total}"
        sizes = "comp_scan sizes must fit int64"
        row = c_int64 * (total + 1)
        best, bu, bd = row(), row(), row()
        self._lib.sperner_comp_scan(
            len(upsets), _words(upsets, bitsets, total), _words(usizes, sizes),
            len(downsets), _words(downsets, bitsets, total), _words(dsizes, sizes),
            total, best, bu, bd)
        return best[:], bu[:], bd[:]

    def exact_search(self, k, product, masks, cmp_fwd, floor_value, target,
                     node_budget, deadline):
        """Same contract as the pure version; see there for the search story."""
        m_count = len(masks)
        _check(m_count <= _WORD,
               f"exact_search needs m_count <= {_WORD}, got {m_count}")
        _check(k >= 1, f"exact_search needs k >= 1, got {k}")
        _check(len(cmp_fwd) == m_count,
               "exact_search needs one comparability row per mask")
        _check(-_INT64_MAX - 1 <= floor_value <= _INT64_MAX,
               "exact_search floor_value must fit int64")
        rows = f"exact_search comparability rows must lie below bit {m_count}"
        best, nodes, has_labels, completed = c_int64(), c_int64(), c_int(), c_int()
        labels = (c_uint8 * m_count)()
        timed, left = _time_left(deadline)
        rc = self._lib.sperner_exact_search(
            m_count, k, bool(product), _words(masks, "exact_search masks must fit int64"),
            _words(cmp_fwd, rows, m_count), floor_value, _int64(target or 0),
            _int64(node_budget or 0), timed, left,
            byref(best), labels, byref(nodes), byref(has_labels), byref(completed))
        if rc:
            raise MemoryError("exact_search ran out of memory")
        return (best.value, bytes(labels) if has_labels.value else None,
                nodes.value, bool(completed.value))

    def anneal_chain(self, n, k, product, variants, seed, steps, t0, alpha,
                     restart_interval, stop_value, deadline):
        """Same contract and trajectory as the pure version, final
        generator state included, on bitsets of max(1, 2**n / 64) words
        for any n from 2 up to MAX_GROUND, with exact values for both
        measures.  variants, the restart pool, is one bytes buffer of
        whole labelings, which C reads in place."""
        _check(2 <= n <= MAX_GROUND,
               f"compiled annealer needs 2 <= n <= {MAX_GROUND}, got {n}")
        _check(2 <= k <= MAX_LABEL,
               f"compiled annealer needs 2 <= k <= {MAX_LABEL}, got {k}")
        total = 1 << n
        _check(isinstance(variants, bytes),
               f"annealer variants must be one bytes buffer, got {type(variants).__name__}")
        _check(variants and not len(variants) % total,
               f"annealer variants need whole labelings of 2**n = {total} bytes, "
               f"got {len(variants)} bytes")
        _check(not variants.translate(None, bytes(range(k + 1))),
               f"annealer labels must lie in 0..{k}")  # none left once 0..k go
        # limbs least significant first; no product reaches the clamp
        stop = min(stop_value or 0, (1 << 32 * _VALUE_LIMBS) - 1)
        _check(stop >= 0, "annealer stop value must be >= 0")
        stop_limbs = (c_uint32 * _VALUE_LIMBS)(
            *(stop >> 32 * i & 0xFFFFFFFF for i in range(_VALUE_LIMBS)))
        best = (c_uint32 * _VALUE_LIMBS)()
        done, state = c_int64(), c_uint64()
        best_labels = (c_uint8 * total)()
        timed, left = _time_left(deadline)
        rc = self._lib.sperner_anneal_chain(
            n, k, bool(product), len(variants) // total, variants,
            seed & _MASK64, _int64(steps), t0, alpha,
            _int64(restart_interval), stop_limbs, timed, left,
            best, best_labels, byref(done), byref(state))
        if rc:
            raise MemoryError("anneal_chain ran out of memory")
        value = sum(limb << 32 * i for i, limb in enumerate(best))
        return value, bytes(best_labels), done.value, state.value
