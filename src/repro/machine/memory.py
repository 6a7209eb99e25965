"""Byte-addressed memory model with explicit alignment.

Each kernel array is backed by an :class:`ArrayBuffer`: a padded byte buffer
whose *base alignment* is controlled by the runtime.  The split-compilation
story hinges on this: the offline compiler must not assume bases are
aligned, while a JIT that controls allocation can guarantee 32-byte bases
and fold the ``bases_aligned`` version guard (§III-B.c).

Buffers are over-allocated by a guard region so the AltiVec-style
floor-aligned load of the last vector (``align_load`` reading up to VS-1
bytes past the data) stays in bounds, just as GCC-for-AltiVec relies on
padded allocation.
"""

from __future__ import annotations

import numpy as np

from ..ir.types import ScalarType

__all__ = ["ArrayBuffer", "GUARD_BYTES"]

#: Over-allocation on both sides of the data (>= the largest VS).
GUARD_BYTES = 64


class ArrayBuffer:
    """A typed, alignment-aware memory buffer.

    Attributes:
        elem: element scalar type.
        count: number of elements.
        base_misalign: the base address modulo 32 this buffer simulates.
            0 models an allocator that aligns arrays (what our JIT runtimes
            and GCC-for-globals do); nonzero models arbitrary malloc.
    """

    def __init__(
        self,
        elem: ScalarType,
        count: int,
        base_misalign: int = 0,
        data: np.ndarray | None = None,
    ) -> None:
        if not 0 <= base_misalign < 32:
            raise ValueError("base_misalign must be in [0, 32)")
        self.elem = elem
        self.count = count
        self.base_misalign = base_misalign
        nbytes = count * elem.size
        self._raw = np.zeros(GUARD_BYTES + nbytes + GUARD_BYTES, dtype=np.uint8)
        # Position the logical base so that base % 32 == base_misalign.
        self._base = GUARD_BYTES - (GUARD_BYTES % 32) + base_misalign
        if self._base < 0:
            self._base += 32
        self.nbytes = nbytes
        if data is not None:
            self.write_elements(data)

    # -- typed element access (host-side setup/verification) ---------------

    def write_elements(self, values) -> None:
        arr = np.asarray(values, dtype=self.elem.numpy_dtype).ravel()
        if arr.size != self.count:
            raise ValueError(
                f"expected {self.count} elements, got {arr.size}"
            )
        self._raw[self._base : self._base + self.nbytes] = arr.view(np.uint8)

    def read_elements(self) -> np.ndarray:
        view = self._raw[self._base : self._base + self.nbytes]
        return view.view(self.elem.numpy_dtype).copy()

    # -- byte-addressed machine access --------------------------------------

    def load_bytes(self, offset: int, nbytes: int) -> np.ndarray:
        start = self._base + offset
        raw = self._raw
        if start < 0 or start + nbytes > raw.shape[0]:
            raise IndexError(
                f"out-of-bounds access: offset {offset}, {nbytes} bytes "
                f"(array of {self.nbytes} data bytes + {GUARD_BYTES} guard)"
            )
        return raw[start : start + nbytes]

    def load_vector(self, offset: int, dtype: np.dtype, lanes: int) -> np.ndarray:
        # Inlined load_bytes: this is the VM engines' hottest memory path.
        nbytes = dtype.itemsize * lanes
        start = self._base + offset
        raw = self._raw
        if start < 0 or start + nbytes > raw.shape[0]:
            raise IndexError(
                f"out-of-bounds access: offset {offset}, {nbytes} bytes "
                f"(array of {self.nbytes} data bytes + {GUARD_BYTES} guard)"
            )
        return raw[start : start + nbytes].view(dtype).copy()

    def store_vector(self, offset: int, values: np.ndarray) -> None:
        if not values.flags["C_CONTIGUOUS"]:
            values = np.ascontiguousarray(values)
        raw = values.view(np.uint8)
        start = self._base + offset
        dst = self._raw
        if start < 0 or start + raw.size > dst.shape[0]:
            raise IndexError(
                f"out-of-bounds store: offset {offset}, {raw.size} bytes"
            )
        dst[start : start + raw.size] = raw

    def load_scalar(self, offset: int, dtype: np.dtype):
        nbytes = dtype.itemsize
        start = self._base + offset
        raw = self._raw
        if start < 0 or start + nbytes > raw.shape[0]:
            raise IndexError(
                f"out-of-bounds access: offset {offset}, {nbytes} bytes "
                f"(array of {self.nbytes} data bytes + {GUARD_BYTES} guard)"
            )
        # Unaligned element view: numpy handles the unaligned read; the
        # scalar it returns is a value copy, never a view of the buffer.
        return raw[start : start + nbytes].view(dtype)[0]

    def store_scalar(self, offset: int, value, dtype: np.dtype) -> None:
        nbytes = dtype.itemsize
        start = self._base + offset
        dst = self._raw
        if start < 0 or start + nbytes > dst.shape[0]:
            raise IndexError(
                f"out-of-bounds store: offset {offset}, {nbytes} bytes"
            )
        dst[start : start + nbytes].view(dtype)[0] = value

    def address_of(self, offset: int) -> int:
        """Absolute simulated address of ``base + offset`` (for alignment
        computations like lvsr)."""
        return self._base + offset

    def overlaps(self, other: "ArrayBuffer") -> bool:
        """Runtime overlap test used by ``no_alias`` guards.

        Distinct buffers never overlap; aliasing is modelled by sharing the
        raw backing (see :meth:`alias_view`).
        """
        return self._raw is other._raw

    def alias_view(self, elem: ScalarType, count: int, byte_offset: int = 0):
        """Create an overlapping view for may-alias experiments."""
        view = ArrayBuffer.__new__(ArrayBuffer)
        view.elem = elem
        view.count = count
        view.base_misalign = (self.base_misalign + byte_offset) % 32
        view._raw = self._raw
        view._base = self._base + byte_offset
        view.nbytes = count * elem.size
        return view

    def __repr__(self) -> str:
        return (
            f"ArrayBuffer({self.elem} x {self.count}, "
            f"base%32={self.base_misalign})"
        )
