"""k2local: exact two-dimensional local field arithmetic and reciprocity.

Modules:
  ff        finite fields F_q, traces/norms, Teichmüller lifts, Galois rings,
            polynomials Poly1 over F_q (gcd and roots)
  series    precision-tracked Laurent series in two variables k((u))((t))
  witt      finite-length Witt vectors, ghost coordinates, universal polynomials
  forms     wedge, the dlog map on symbols, and residue on plain series
  symbols   higher tame symbol, boundary, local Witt pairing, K2 decomposition
  globalfield  places, local expansions, reciprocity and duality verifiers
  cli       expression parser and command-line front end
"""

__version__ = "0.1.0"
