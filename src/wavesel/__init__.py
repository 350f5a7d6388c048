"""Projection estimators on localized bases with penalized model selection.

Subpackages cover data generation (:mod:`wavesel.signals`), basis
construction and certification (:mod:`wavesel.bases`), the fast pyramid
transform (:mod:`wavesel.transform`), least-squares fitting and risk
accounting (:mod:`wavesel.estimator`), the selection procedures
(:mod:`wavesel.selection`), concentration and representation-formula
experiments (:mod:`wavesel.concentration`), the oracle-ratio bench
(:mod:`wavesel.bench`) and the command line (:mod:`wavesel.cli`).
"""

__version__ = "0.1.0"
