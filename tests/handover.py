"""Spy on the samples array a producer passes to Recording."""

from unittest import mock

from barstress import core


def handed_samples(module, produce, *args):
    """The Recording produce(*args) returns and the samples array it
    passed to the Recording constructor named in module."""
    handed = []

    def spy(**kwargs):
        handed.append(kwargs["samples"])
        return core.Recording(**kwargs)

    with mock.patch.object(module, "Recording", side_effect=spy):
        rec = produce(*args)
    return rec, handed[0]
