"""The Pinatubo operation vocabulary and operand rules.

Per the paper (Section 4.2):

- OR supports one-step multi-row operation up to the technology's sensing
  limit (128 rows for PCM/ReRAM-class contrast, 2 for STT-MRAM);
- AND supports exactly 2 rows in one step (footnote 3: the n > 2 cases
  are electrically indistinguishable);
- XOR takes exactly 2 operands via two micro-steps;
- INV takes exactly 1 operand (differential latch output).

Wider operand lists are legal at the API level: the executor decomposes
them into accumulation passes (e.g. a 128-operand OR on Pinatubo-2 runs
as 127 two-row operations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.nvm.margin import margin_analysis
from repro.nvm.technology import NVMTechnology


class PimOp(enum.Enum):
    """Bulk bitwise operations Pinatubo executes in memory."""

    OR = "or"
    AND = "and"
    XOR = "xor"
    INV = "inv"

    # members are singletons: hash by identity in C, not by name in Python
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, name) -> "PimOp":
        """Accept a PimOp or its lowercase string name."""
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            known = ", ".join(op.value for op in cls)
            raise ValueError(f"unknown PIM op {name!r}; known: {known}") from None


#: numpy ufunc per binary op (INV is ``np.bitwise_not`` on its one operand)
BITWISE_UFUNCS = {
    PimOp.OR: np.bitwise_or,
    PimOp.AND: np.bitwise_and,
    PimOp.XOR: np.bitwise_xor,
}


@dataclass(frozen=True)
class OperandLimits:
    """How many operand rows one in-memory step of each op may combine."""

    or_rows: int  # one-step multi-row OR limit
    and_rows: int  # 2 if AND is sensable, else 1 (unsupported)
    xor_rows: int = 2
    inv_rows: int = 1

    def single_step_limit(self, op: PimOp) -> int:
        """Max operands one sensing step combines for ``op``."""
        if op is PimOp.OR:
            return self.or_rows
        if op is PimOp.AND:
            return self.and_rows
        if op is PimOp.XOR:
            return self.xor_rows
        return self.inv_rows

    def min_operands(self, op: PimOp) -> int:
        return 1 if op is PimOp.INV else 2

    def validate_operand_count(self, op: PimOp, n: int) -> None:
        lo = self.min_operands(op)
        if op is PimOp.INV and n != 1:
            raise ValueError("inv takes exactly one operand")
        if n < lo:
            raise ValueError(f"{op.value} needs at least {lo} operands, got {n}")


@lru_cache(maxsize=None)
def operand_limits(
    technology: NVMTechnology, max_rows_override: Optional[int] = None
) -> OperandLimits:
    """Derive the operand limits for a technology.

    ``max_rows_override`` caps the one-step OR width below the sensing
    limit -- this is how the evaluation's "Pinatubo-2" configuration is
    produced (a Pinatubo that never uses more than 2-row activation).

    Memoized: the margin-limit search behind it is the expensive part of
    building an executor, and sweeps/benchmarks build many per
    technology.
    """
    analysis = margin_analysis(technology)
    or_rows = analysis.max_or_rows()
    and_rows = analysis.max_and_rows()
    if max_rows_override is not None:
        if max_rows_override < 2:
            raise ValueError("max_rows_override must be >= 2")
        or_rows = min(or_rows, max_rows_override)
        and_rows = min(and_rows, max_rows_override)
    return OperandLimits(or_rows=or_rows, and_rows=and_rows)
