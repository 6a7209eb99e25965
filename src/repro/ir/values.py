"""Value hierarchy for the Vapor IR.

Every operand in the IR is a :class:`Value`.  Instructions (defined in
:mod:`repro.ir.instructions`) are themselves values, LLVM-style, so the IR is
SSA: each value has exactly one definition.  Loop-carried state is expressed
with block arguments on structured loops (see :mod:`repro.ir.structure`)
rather than phi nodes.
"""

from __future__ import annotations

import itertools

from .types import BOOL, F32, F64, I32, ScalarType, Type

__all__ = ["Value", "Const", "Argument", "ArrayRef", "BlockArg"]

_ids = itertools.count()


class Value:
    """Base class for all IR values.

    Attributes:
        type: the :class:`~repro.ir.types.Type` of the value.
        name: an optional printer hint; uniqued by the printer.
    """

    def __init__(self, type: Type, name: str = "") -> None:
        self.type = type
        self.name = name
        self.id = next(_ids)

    def short(self) -> str:
        return f"%{self.name or self.id}"

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.short()}: {self.type})"


class Const(Value):
    """A compile-time scalar constant."""

    def __init__(self, value: float, type: ScalarType) -> None:
        super().__init__(type)
        if type.is_float:
            self.value: float | int = float(value)
        else:
            self.value = int(value)

    def short(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Const({self.value}: {self.type})"


class Argument(Value):
    """A scalar function parameter (e.g. the loop trip count ``n``)."""

    def __init__(self, name: str, type: ScalarType) -> None:
        super().__init__(type, name)


class ArrayRef(Value):
    """An array function parameter or local/global array.

    Arrays carry their element type and shape.  Extents may be symbolic
    (an :class:`Argument`) only in the outermost dimension; inner dimensions
    must be constant so that subscripts linearize to affine expressions, the
    form the dependence and alignment analyses understand.

    Attributes:
        elem: element scalar type.
        shape: tuple of extents (int or Argument).
        may_alias: if True the offline compiler must assume this array can
            overlap others, forcing runtime alias versioning.
        base_align: guaranteed alignment (bytes) of the array base at run
            time, as known to the *offline* compiler.  The split flow sets
            this to the element size (nothing guaranteed — the JIT may or may
            not be able to align arrays); the native flow sets it to the
            target's vector size, matching GCC forcing alignment of
            global/local arrays.
    """

    def __init__(
        self,
        name: str,
        elem: ScalarType,
        shape: tuple,
        may_alias: bool = False,
        base_align: int | None = None,
    ) -> None:
        super().__init__(elem, name)
        self.elem = elem
        self.shape = tuple(shape)
        self.may_alias = may_alias
        self.base_align = base_align if base_align is not None else elem.size
        for extent in self.shape[1:]:
            if not isinstance(extent, int):
                raise ValueError(
                    f"array {name}: only the outermost extent may be symbolic"
                )

    @property
    def rank(self) -> int:
        return len(self.shape)

    def short(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        dims = "x".join(
            str(e) if isinstance(e, int) else e.name for e in self.shape
        )
        return f"ArrayRef(@{self.name}: {self.elem}[{dims}])"


class BlockArg(Value):
    """An argument of a structured block.

    The first argument of a loop body is the induction variable; the rest are
    the loop-carried values (``iter_args``).
    """

    def __init__(self, name: str, type: Type, index: int) -> None:
        super().__init__(type, name)
        self.index = index


# Handy shared constants.
ZERO_I32 = Const(0, I32)
ONE_I32 = Const(1, I32)
TRUE = Const(1, BOOL)
FALSE = Const(0, BOOL)
ZERO_F32 = Const(0.0, F32)
ZERO_F64 = Const(0.0, F64)
