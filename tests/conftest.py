"""Shared fixtures."""

import sys

import numpy as np
import pytest

import flwave.grid


@pytest.fixture
def count_transforms(monkeypatch):
    """Count ``forward_transform`` calls, in total and on one signal.

    ``count_transforms(f)`` rebinds ``forward_transform`` in every loaded
    flwave module to a counting wrapper and returns its tally: ``"all"``
    calls, and ``"whole"`` calls whose input holds the sample buffer of f,
    whichever ``Signal`` object carries it.
    """
    original = flwave.grid.forward_transform

    def install(f):
        tally = {"all": 0, "whole": 0}

        def counted(sig):
            tally["all"] += 1
            tally["whole"] += np.may_share_memory(sig.values, f.values)
            return original(sig)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "flwave" and \
                    getattr(module, "forward_transform", None) is original:
                monkeypatch.setattr(module, "forward_transform", counted)
        return tally

    return install
