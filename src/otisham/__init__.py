"""Hamiltonicity toolkit for swapped (OTIS) interconnection networks."""

__version__ = "0.1.0"
