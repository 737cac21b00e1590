"""Decoding through a receiver's admitted-entry table, checked.

The table (:class:`repro.runtime.codec.AdmittedEntries`) is a memo of a
pure function: whatever it holds, ``decode(data, table)`` must be
indistinguishable from ``decode(data)``. :func:`checked_decode` is that
sentence as an assertion, so any test that decodes through it — the
differential property, and the hostility fuzz suites rerun warm — checks
it on every input it throws.
"""

from __future__ import annotations

from repro.runtime import codec
from repro.runtime.codec import AdmittedEntries, CodecError


def kept(table: AdmittedEntries):
    """What *table* remembers, as a value: every kind's records and the
    verified ids, in order."""
    return (
        {kind: list(records.items()) for kind, records in table.records.items()},
        list(table.verified.items()),
    )


def checked_decode(data, table: AdmittedEntries):
    """``codec.decode(data, table)``, asserting it equals table-less
    ``decode`` — same result, or the same exception class — and that a
    datagram that raised left the table's records as they were."""
    before = kept(table)
    try:
        expected = codec.decode(data)
    except CodecError as error:
        try:
            codec.decode(data, table)
        except CodecError as through_table:
            assert type(through_table) is type(error)
            assert str(through_table) == str(error)
        else:
            raise AssertionError(f"the table hid {error!r}")
        assert kept(table) == before
        raise
    result = codec.decode(data, table)
    assert result == expected
    assert kept(table) == before  # decode only stages
    return result


def warm_table(*wires) -> AdmittedEntries:
    """A table that has admitted every entry of every datagram in
    *wires*, as a fabric without a verifier would have."""
    table = AdmittedEntries()
    for wire in wires:
        codec.decode(wire, table)
        table.admit_pending()
    return table
