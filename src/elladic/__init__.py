"""elladic: exact l-adic Satake/Whittaker congruence toolkit.

Subpackages:

* padic          capped-precision arithmetic in unramified extensions of Q_l
* satake         parameter multisets, characteristic polynomials, congruence
* whittaker      diagonal Whittaker values and the congruence checker
* function_field places, adeles, residue characters and Riemann-Roch on F_q(t)
* pipeline       the global n=2 congruence verifier
* cli            batch JSON command line front end
"""

__version__ = "0.1.0"

from .padic import FieldConfig, LocalNumber  # noqa: F401
