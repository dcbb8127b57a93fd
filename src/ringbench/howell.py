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


def howell_complete(mat: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Howell form H of the row span of ``mat`` over Z/m, plus a transform U
    with (U @ mat) % m == H.  ``mat`` may have zero rows."""
    A = np.asarray(mat, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("expected a 2-D generator matrix")
    k, n = A.shape
    rows = [A[i] % m for i in range(k)]
    urows = [np.eye(k, dtype=np.int64)[i] for i in range(k)]

    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] % m:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            urows[r], urows[piv] = urows[piv], urows[r]
        u = stabilizing_unit(int(rows[r][c]), m)
        if u != 1:
            rows[r] = (rows[r] * u) % m
            urows[r] = (urows[r] * u) % m
        for i in range(r + 1, len(rows)):
            b = int(rows[i][c])
            if b:
                a = int(rows[r][c])
                g, s, t = egcd(a, b)
                uu, vv = -(b // g), a // g
                new_r = (s * rows[r] + t * rows[i]) % m
                new_i = (uu * rows[r] + vv * rows[i]) % m
                rows[r], rows[i] = new_r, new_i
                new_ur = (s * urows[r] + t * urows[i]) % m
                new_ui = (uu * urows[r] + vv * urows[i]) % m
                urows[r], urows[i] = new_ur, new_ui
        b = int(rows[r][c])
        for i in range(r):
            q = int(rows[i][c]) // b
            if q:
                rows[i] = (rows[i] - q * rows[r]) % m
                urows[i] = (urows[i] - q * urows[r]) % m
        a = annihilator(b, m)
        if a:
            rows.append((a * rows[r]) % m)
            urows.append((a * urows[r]) % m)
        r += 1

    for i in range(r, len(rows)):
        if rows[i].any():
            raise InvariantViolation("nonzero row escaped Howell reduction")
    if r == 0:
        return np.zeros((0, n), dtype=np.int64), np.zeros((0, k), dtype=np.int64)
    H = np.array(rows[:r], dtype=np.int64)
    U = np.array(urows[:r], dtype=np.int64)
    return H, U


def howell_form(mat: np.ndarray, m: int) -> np.ndarray:
    return howell_complete(mat, m)[0]


def span_order(H: np.ndarray, m: int) -> int:
    """Number of elements in the row span of a Howell-form matrix."""
    order = 1
    for row in H:
        p = int(row[np.flatnonzero(row)[0]])
        order *= m // p
    return order


def reduce_vector(H: np.ndarray, v: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy reduction of v against a Howell-form matrix.

    Returns (residual, coeffs); the residual is zero exactly when v lies in
    the row span, in which case v == (coeffs @ H) % m.
    """
    w = np.asarray(v, dtype=np.int64) % m
    coeffs = np.zeros(len(H), dtype=np.int64)
    for i, row in enumerate(H):
        c = int(np.flatnonzero(row)[0])
        p = int(row[c])
        if w[c] % p == 0:
            q = int(w[c]) // p
            if q:
                w = (w - q * row) % m
                coeffs[i] = q
    return w, coeffs


def contains_vector(H: np.ndarray, v: np.ndarray, m: int) -> bool:
    residual, _ = reduce_vector(H, v, m)
    return not residual.any()


def span_elements(H: np.ndarray, m: int):
    """All elements of the row span, in lexicographic coefficient order."""
    n = H.shape[1]
    if len(H) == 0:
        yield np.zeros(n, dtype=np.int64)
        return
    ranges = [range(m // int(row[np.flatnonzero(row)[0]])) for row in H]
    for coeffs in itertools.product(*ranges):
        yield (np.asarray(coeffs, dtype=np.int64) @ H) % m


def solve_row(A: np.ndarray, b: np.ndarray, m: int) -> np.ndarray | None:
    """A row vector x with (x @ A) % m == b, or None when none exists."""
    H, U = howell_complete(A, m)
    residual, coeffs = reduce_vector(H, np.asarray(b, dtype=np.int64), m)
    if residual.any():
        return None
    x = (coeffs @ U) % m if len(H) else np.zeros(A.shape[0], dtype=np.int64)
    if ((x @ A - b) % m).any():
        raise InvariantViolation("solution does not satisfy the system")
    return x
