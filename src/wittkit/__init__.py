"""wittkit: exact computer algebra for truncated Witt vectors and friends.

Submodules
----------
sparse     ring arithmetic on sparse {exponent: coefficient} dicts
rings      prime fields, sparse Laurent polynomials over Z/p^n
witt       truncated p-typical Witt vectors, w-tilde and its inverse
weyl       the crystalline Weyl algebra of divided-power operators
wittdiff   Witt differential operators and their structure relations
drw        the de Rham-Witt complex of affine space (symbolic basis)
cech       cohomology of Witt line bundles on projective space
localcoh   local cohomology classes, the generation algorithm
linalg     exact echelon forms over F_p, Smith forms over Z and Z/p^n
steinberg  parabolic-induction complexes and Steinberg ranks
cli        the `wittkit` command-line interface
"""

__version__ = "0.1.0"
