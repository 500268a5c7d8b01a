"""Central numerical tolerance table.

Every tolerance used by validation code or property checks lives here so the
test suite has a single knob per class of comparison.
"""

# State validity
NORM = 1e-12                # unit-norm check for pure states
HERMITICITY = 1e-12         # Hermiticity / trace-one check for density matrices
EIGENVALUE = 1e-10          # allowed negativity of density-matrix eigenvalues
BLOCH_BALL = 1e-10          # |m| <= 1 slack for Bloch vectors

# Generic algebra
ROUNDTRIP = 1e-12           # bloch <-> density round trip
ORTHOGONALITY = 1e-10       # basis orthogonality for superpositions
UNITARITY = 1e-10           # U^dag U = I check

# Magic measures
LEMMA_EQUIV = 1e-8          # closed-form robustness vs LP oracle
CLIFFORD_INVARIANCE = 1e-10
ADDITIVITY = 1e-10
SRE_ZERO = 1e-10            # stabilizer states must score zero
MONOTONICITY = 1e-9         # partial-trace monotonicity slack

# Geometry
INTERSECTION = 1e-10        # residual of exact line-polytope roots
COMMON_T = 1e-8             # equal-ratio matching of intersection parameters
LEVEL_MATCH = 1e-8          # endpoints on a common reference level

# Cloners / broadcasting
BROADCAST_EQUALITY = 1e-9   # perfect-broadcast magic comparisons
WEIGHTS = 1e-10             # |alpha|^2 + |beta|^2 = 1
