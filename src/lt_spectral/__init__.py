"""Certified numerical toolkit for critical-case spectral moment bounds of
one-dimensional Schrodinger operators -d^2/dx^2 - V with V >= 0.

The package exports only __version__; import each name from its module,
e.g. ``from lt_spectral.sturm import solve_line``.  Importing the package
loads no module of its own, nor numpy or scipy."""

__version__ = "1.0.0"
