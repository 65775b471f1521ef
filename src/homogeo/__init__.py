"""homogeo: symbolic verification of homogeneity-graded structures on a
trivialized line bundle chart.

The package couples a small exact-rational expression kernel (parser,
differentiation, probabilistic zero test on compiled tapes evaluated in
floats, over GF(p) and in exact rationals) with coordinate tensor
calculus, and uses them to machine-check the dictionaries between
scaling-homogeneous frame structures upstairs and geometric data on the
base: contact pairs, cosymplectic pairs, fiberwise complex structures, and
metric triples with their curvature tensors.

Everything is immutable and every operation is pure; concurrent use needs
no locking, and all random verdicts are deterministic per seed.  The
package uses only the Python standard library.  Callers import each module
by name (`from homogeo import expr`); the package re-exports nothing.
"""

__version__ = "0.1.0"
