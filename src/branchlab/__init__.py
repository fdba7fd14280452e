"""Sequence algebras with explicit evidence for weak-limit behavior.

Smooth-function sequences, compactly supported test functions, weak-limit
classification, constructible ideals with off-diagonality certificates, and
quotient algebras whose multiplication demonstrably depends on the choice of
ideal.  Verdicts are three-valued wherever the underlying question is only
semi-decidable.  The public surface is the command line, `branchlab.cli`:
`run`, `main`, `canonical_json`, `strip_volatile`, `comparable_bytes` and the
command table `COMMANDS`.
"""

__version__ = "0.1.0"
