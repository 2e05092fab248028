"""Inverse design and analysis of focusing bilayer diffraction gratings for
trapped-ion fluorescence collection."""

__version__ = "0.5.17"
