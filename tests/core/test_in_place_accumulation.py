"""In-place accumulation: a destination that is also a later operand.

On pcm, AND and XOR combine two rows per sensing step, so a longer
operand list runs accumulation passes that read the destination as
their accumulator.  A destination that is also an operand past the
first step would then be read after step 1 overwrote it.  Every case
is checked against numpy, interpreted and planned, on one-row and
two-row vectors.
"""

import numpy as np
import pytest

from repro.core.pinatubo import PinatuboSystem
from repro.runtime.api import PimRuntime

UFUNCS = {"and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor}

#: (op, destination, operands) over vectors a, b, c, d
CASES = [
    ("and", "d", "bcd"),
    ("xor", "d", "bbd"),
    ("xor", "a", "aaa"),
    # beyond the three reported cases: every copy cancelled, all but
    # one cancelled, idempotent AND, a longer XOR chain
    ("xor", "d", "dddd"),
    ("xor", "d", "bdd"),
    ("and", "a", "aaa"),
    ("xor", "d", "bcdad"),
]


@pytest.mark.parametrize("plan", [False, True], ids=["interpreted", "planned"])
@pytest.mark.parametrize("n_rows", [1, 2])
@pytest.mark.parametrize("op,dest,operands", CASES)
def test_in_place_accumulation_matches_numpy(plan, n_rows, op, dest, operands):
    system = PinatuboSystem.pcm()
    rt = PimRuntime(system, plan=plan)
    n_bits = n_rows * system.geometry.row_bits
    rng = np.random.default_rng(7)
    bits = {name: rng.integers(0, 2, n_bits, dtype=np.uint8) for name in "abcd"}
    handles = {}
    for name, value in bits.items():
        handles[name] = rt.pim_malloc(n_bits)
        rt.pim_write(handles[name], value)

    rt.pim_op(op, handles[dest], [handles[name] for name in operands])

    want = UFUNCS[op].reduce(np.stack([bits[name] for name in operands]))
    assert np.array_equal(rt.pim_read(handles[dest]), want)
    for name in set("abcd") - {dest}:
        assert np.array_equal(rt.pim_read(handles[name]), bits[name])
