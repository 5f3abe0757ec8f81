"""Shared fixtures."""

import sys

import numpy as np
import pytest

import flwave.grid
import flwave.windows


@pytest.fixture
def count_transforms(monkeypatch):
    """Count forward transforms, in total and on one signal.

    ``count_transforms(f)`` rebinds ``forward_transform`` and the
    windowed-spectrum kernel ``windowed_spectra`` in every loaded flwave
    module to counting wrappers and returns their tally: ``"all"``
    transforms (each spectrum the kernel yields is one), and ``"whole"``
    ``forward_transform`` calls whose input holds the sample buffer of f,
    whichever ``Signal`` object carries it (the kernel only transforms
    windowed products).
    """
    originals = {"forward_transform": flwave.grid.forward_transform,
                 "windowed_spectra": flwave.windows.windowed_spectra}

    def install(f):
        tally = {"all": 0, "whole": 0}

        def counted(sig):
            tally["all"] += 1
            tally["whole"] += np.may_share_memory(sig.values, f.values)
            return originals["forward_transform"](sig)

        def counted_spectra(sig, w0, cells):
            for spec in originals["windowed_spectra"](sig, w0, cells):
                tally["all"] += 1
                yield spec

        wrappers = {"forward_transform": counted,
                    "windowed_spectra": counted_spectra}
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "flwave":
                continue
            for attr, original in originals.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, wrappers[attr])
        return tally

    return install
