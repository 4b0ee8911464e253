"""Quasi-stationary states of finite-dimensional quantum Markov semigroups."""

__version__ = "0.1.0"
