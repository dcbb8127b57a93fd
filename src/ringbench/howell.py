"""Canonical row forms for submodules of (Z/m)^n.

The Howell form is a strengthened row echelon form over Z/m: two generating
sets span the same additive subgroup of (Z/m)^n if and only if their Howell
forms are identical, which is what makes O(1) deduplication of subgroups
possible.  Shape of the form:

* pivot columns strictly increase down the rows and every pivot entry
  divides m;
* entries above a pivot are reduced modulo the pivot entry;
* for every zero-divisor pivot the annihilated multiple of its row is
  adjoined before reduction, so the span of rows with pivot column >= j
  contains every span element whose leading coordinate is at column >= j.

The subgroup spanned by a Howell matrix with pivot entries p_1, ..., p_k has
exactly prod_i (m // p_i) elements, reached uniquely by coefficient tuples
(c_1, ..., c_k) with 0 <= c_i < m // p_i.

The matrices met here are small (mostly under 8 x 8), so the reduction runs
on rows of plain Python ints, where numpy's per-call overhead would dominate.
The transform U is built only when asked for, which only solve_row does.
H is returned as an int64 array; the functions that read a Howell matrix
take it either as that array or as its rows of ints.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvariantViolation


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def annihilator(a: int, m: int) -> int:
    """The additive annihilator of a mod m, as a residue: x with x*a % m == 0
    and x generating all such multipliers.  Zero when a is a unit."""
    return (m // math.gcd(a, m)) % m


def stabilizing_unit(a: int, m: int) -> int:
    """A unit u mod m with (u * a) % m == gcd(a, m)."""
    a %= m
    if a == 0:
        return 1
    g = math.gcd(a, m)
    s = a // g
    step = m // g
    # s is coprime to m // g; shift it by multiples of m // g until it is a
    # unit mod m, then invert.  Terminates within m steps by CRT.
    t = s
    while math.gcd(t, m) != 1:
        t += step
    return pow(t % m, -1, m)


def _ints(a):
    """An ndarray as (nested) lists of ints; any other sequence as it is."""
    return a.tolist() if isinstance(a, np.ndarray) else a


def howell_complete(
    mat, m: int, transform: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Howell form H of the row span of ``mat`` over Z/m, plus a transform U
    with (U @ mat) % m == H, or None for U when ``transform`` is false.

    ``mat`` is a 2-D array or a list of equal-length rows of ints; it may
    have zero rows (an empty list then means zero columns) and is never
    modified.
    """
    if isinstance(mat, np.ndarray):
        if mat.ndim != 2:
            raise ValueError("expected a 2-D generator matrix")
        n = mat.shape[1]
        mat = mat.astype(np.int64, copy=False).tolist()
    else:
        n = len(mat[0]) if len(mat) else 0
    rows = [[x % m for x in row] for row in mat]
    if not set(map(len, rows)) <= {n}:
        raise ValueError("generator rows differ in length")
    k = len(rows)
    urows = [[int(i == j) for j in range(k)] for i in range(k)] if transform else None

    r = 0
    for c in range(n):
        for piv in range(r, len(rows)):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            if transform:
                urows[r], urows[piv] = urows[piv], urows[r]
        if m % rows[r][c]:  # a pivot dividing m is already normalized
            u = stabilizing_unit(rows[r][c], m)
            rows[r] = [x * u % m for x in rows[r]]
            if transform:
                urows[r] = [x * u % m for x in urows[r]]
        for i in range(r + 1, len(rows)):
            b = rows[i][c]
            if b:
                a = rows[r][c]
                g, s, t = egcd(a, b)
                uu, vv = -(b // g), a // g
                top, low = rows[r], rows[i]
                rows[r] = [(s * x + t * y) % m for x, y in zip(top, low)]
                rows[i] = [(uu * x + vv * y) % m for x, y in zip(top, low)]
                if transform:
                    top, low = urows[r], urows[i]
                    urows[r] = [(s * x + t * y) % m for x, y in zip(top, low)]
                    urows[i] = [(uu * x + vv * y) % m for x, y in zip(top, low)]
        pivot_row = rows[r]
        b = pivot_row[c]
        for i in range(r):
            q = rows[i][c] // b
            if q:
                rows[i] = [(x - q * y) % m for x, y in zip(rows[i], pivot_row)]
                if transform:
                    urows[i] = [(x - q * y) % m for x, y in zip(urows[i], urows[r])]
        a = annihilator(b, m)
        if a:
            rows.append([a * x % m for x in pivot_row])
            if transform:
                urows.append([a * x % m for x in urows[r]])
        r += 1

    for i in range(r, len(rows)):
        if any(rows[i]):
            raise InvariantViolation("nonzero row escaped Howell reduction")
    H = np.array(rows[:r], dtype=np.int64).reshape(r, n)
    U = np.array(urows[:r], dtype=np.int64).reshape(r, k) if transform else None
    return H, U


def howell_form(mat, m: int) -> np.ndarray:
    return howell_complete(mat, m, transform=False)[0]


def leading_entries(H) -> list[tuple[int, int]]:
    """(column, entry) of the first nonzero entry of each row of a Howell
    matrix: its pivots."""
    leads = []
    for row in _ints(H):
        p = next(filter(None, row))
        leads.append((row.index(p), p))  # only zeros come before p
    return leads


def span_order(H, m: int) -> int:
    """Number of elements in the row span of a Howell-form matrix."""
    return math.prod(m // p for _, p in leading_entries(H))


def reduce_vector(H, v, m: int, leads=None) -> tuple[list[int], list[int]]:
    """Greedy reduction of v against a Howell-form matrix.

    Returns (residual, coeffs) as lists of ints; the residual is zero exactly
    when v lies in the row span, in which case v == (coeffs @ H) % m.
    ``leads`` is ``leading_entries(H)``, for a caller that keeps it.
    """
    rows = _ints(H)
    if leads is None:
        leads = leading_entries(rows)
    w = [x % m for x in _ints(v)]
    coeffs = [0] * len(rows)
    for i, ((c, p), row) in enumerate(zip(leads, rows)):
        q, rem = divmod(w[c], p)
        if q and not rem:
            w = [(x - q * y) % m for x, y in zip(w, row)]
            coeffs[i] = q
    return w, coeffs


def contains_vector(H, v, m: int, leads=None) -> bool:
    residual, _ = reduce_vector(H, v, m, leads)
    return not any(residual)


def span_elements(H: np.ndarray, m: int):
    """All elements of the row span, in lexicographic coefficient order."""
    n = H.shape[1]
    if len(H) == 0:
        yield np.zeros(n, dtype=np.int64)
        return
    ranges = [range(m // p) for _, p in leading_entries(H)]
    for coeffs in itertools.product(*ranges):
        yield (np.asarray(coeffs, dtype=np.int64) @ H) % m


def solve_row(A: np.ndarray, b: np.ndarray, m: int) -> np.ndarray | None:
    """A row vector x with (x @ A) % m == b, or None when none exists."""
    H, U = howell_complete(A, m)
    residual, coeffs = reduce_vector(H, b, m)
    if any(residual):
        return None
    x = (np.array(coeffs, dtype=np.int64) @ U) % m
    if ((x @ A - b) % m).any():
        raise InvariantViolation("solution does not satisfy the system")
    return x
