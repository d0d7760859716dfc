"""The request records every serving layer reads.

A plain read, a lowered range predicate and a standing query are one
:class:`QueryRequest` type told apart by ``kind``, so they validate the
same way.  An :class:`AnalyticsRequest` derives ``vectors`` from its
spec once, at construction, and ``dataclasses.replace`` re-derives it.
"""

import dataclasses

import pytest

from repro.service.request import (
    AnalyticsRequest,
    QueryRequest,
    bin_vector_name,
    bitslice_vector_name,
)

KINDS = ("bitwise", "range", "subscribe")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "op, vectors, arrival_s, message",
    [
        ("nand", ("a", "b"), 0.0, "unknown PIM op"),
        ("and", ("a",), 0.0, "and needs at least two vectors"),
        ("inv", ("a", "b"), 0.0, "inv takes exactly one vector"),
        ("or", (), 0.0, "at least one vector"),
        ("xor", ("a", "b"), -1.0, "arrival_s must be non-negative"),
    ],
)
def test_every_query_kind_rejects_the_same_bad_request(
    kind, op, vectors, arrival_s, message
):
    with pytest.raises(ValueError, match=message):
        QueryRequest(0, "t", op, vectors, arrival_s, kind=kind)


def test_replace_rederives_analytics_vectors():
    request = AnalyticsRequest(
        7, "t", (("cmp", "age", "ge", 3, 2),), ("count",), 0.5
    )
    assert request.vectors == tuple(
        bitslice_vector_name("age", j) for j in range(2)
    )
    swapped = dataclasses.replace(
        request,
        filters=(("range", "region", 1, 2),),
        aggregate=("sum", "age", 3),
    )
    assert swapped.vectors == (
        bin_vector_name("region", 1),
        bin_vector_name("region", 2),
        *(bitslice_vector_name("age", j) for j in range(3)),
    )
    assert (swapped.request_id, swapped.arrival_s) == (7, 0.5)
    # the original record is untouched
    assert request.vectors[0] == bitslice_vector_name("age", 0)
