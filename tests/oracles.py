"""Independent Schur evaluators, the cross-checks of whittaker.schur_value.

The classical bialternant quotient and a semistandard-tableau enumeration
share nothing with the production Jacobi-Trudi table; det is the plain
cofactor determinant both the bialternant and the per-weight reference
sweep of test_whittaker expand.
"""

from elladic.errors import TooLarge
from elladic.satake import SatakeParam, elementary_symmetric_all
from elladic.whittaker import is_dominant

ORACLE_MAX_RANK = 4
ORACLE_MAX_WEIGHT = 8


def det(config, rows):
    """Cofactor determinant; fine for the small matrices that arise here."""
    n = len(rows)
    if n == 0:
        return config.one()
    if n == 1:
        return rows[0][0]
    acc = config.zero()
    for i in range(n):
        c = rows[i][0]
        if c.is_zero:
            continue
        minor = [row[1:] for j, row in enumerate(rows) if j != i]
        term = c * det(config, minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def schur_bialternant(S: SatakeParam, a):
    """det(mu_j^(a_l + n - l)) / det(mu_j^(n - l)).

    Meaningful when the parameter residues are pairwise distinct, in which
    case the denominator is a unit and no precision is lost.  With
    coinciding entries the denominator is an exact zero and division
    fails, which is exactly why the production path avoids this formula.
    """
    n = S.n
    cfg = S.config
    num_rows = [[S.mu[j] ** (a[l] + n - 1 - l) for l in range(n)] for j in range(n)]
    den_rows = [[S.mu[j] ** (n - 1 - l) for l in range(n)] for j in range(n)]
    return det(cfg, num_rows) / det(cfg, den_rows)


def schur_oracle(S: SatakeParam, a):
    """Monomial sum over semistandard tableaux, for small shapes only.

    The weight is reduced by its last entry exactly as in schur_value; the
    reduced shape must satisfy n <= 4 and |lambda| <= 8 or TooLarge is
    raised.  This enumeration shares nothing with the Jacobi-Trudi path.
    """
    n = S.n
    if not is_dominant(a):
        raise ValueError("oracle requires a dominant weight")
    if n > ORACLE_MAX_RANK:
        raise TooLarge(f"oracle limited to rank <= {ORACLE_MAX_RANK}")
    c = a[n - 1]
    lam = [a[i] - c for i in range(n)]
    if sum(lam) > ORACLE_MAX_WEIGHT:
        raise TooLarge(f"oracle limited to |shape| <= {ORACLE_MAX_WEIGHT}")
    cfg = S.config
    total = cfg.zero()
    for filling in _ssyt_fillings([r for r in lam if r > 0], n):
        term = cfg.one()
        for entry in filling:
            term = term * S.mu[entry - 1]
        total = total + term
    if c == 0:
        return total
    e_n = elementary_symmetric_all(S)[n]
    return total * e_n ** c


def _ssyt_fillings(shape, n):
    """Yield entry sequences (row-major) of semistandard tableaux of the
    given shape with entries in 1..n: rows weakly increase, columns
    strictly increase."""
    cells = []
    for r, length in enumerate(shape):
        for col in range(length):
            cells.append((r, col))
    grid = {}

    def fill(k):
        if k == len(cells):
            yield tuple(grid[c] for c in cells)
            return
        r, col = cells[k]
        lo = 1
        if col > 0:
            lo = max(lo, grid[(r, col - 1)])
        if r > 0 and (r - 1, col) in grid:
            lo = max(lo, grid[(r - 1, col)] + 1)
        for val in range(lo, n + 1):
            grid[(r, col)] = val
            yield from fill(k + 1)
        grid.pop((r, col), None)

    yield from fill(0)
