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

Every matrix here is a sequence of rows of Python ints, which are exact at
any modulus; the matrices met are small (mostly under 8 x 8), where numpy's
per-call overhead would dominate.  Inputs may be any sequences of integers
(numpy arrays included): each entry is read with int() and reduced mod m.
Results are tuples of int rows.  The transform U is built only when asked
for, which only solve_row does.

The reduction skips work that cannot change the form.  Zero generator rows
(about 30% of the rows the suites pass) are dropped before elimination, and
a zero annihilated multiple is never adjoined.  An entry below a pivot that
the pivot divides (the usual case) is cleared with one row operation; only
an entry it does not divide takes the two-row egcd step.
"""

from __future__ import annotations

import itertools
import math

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


Matrix = tuple[tuple[int, ...], ...]


def combine(coeffs, rows, m: int, n: int) -> tuple[int, ...]:
    """The combination sum_i coeffs[i] * rows[i] mod m of rows of length n."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple([a % m for a in out])


def howell_complete(mat, m: int, transform: bool = True) -> tuple[Matrix, Matrix | None]:
    """Howell form H of the row span of ``mat`` over Z/m, plus a transform U
    with U @ mat == H mod m, or None for U when ``transform`` is false.

    ``mat`` is a sequence of equal-length rows of integers; it may have zero
    rows (zero columns then) and is never modified.
    """
    k = len(mat)
    n = len(mat[0]) if k else 0
    # a zero row spans nothing: it is dropped, and its transform row with it,
    # so U keeps one column per row of mat
    rows, kept = [], []
    for i, row in enumerate(mat):
        if len(row) != n:
            raise ValueError("generator rows differ in length")
        if any(row):
            row = [int(x) % m for x in row]
            if any(row):
                rows.append(row)
                kept.append(i)
    urows = [[int(i == j) for j in range(k)] for i in kept] if transform else None

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
            if not b:
                continue
            a = rows[r][c]
            q, rem = divmod(b, a)
            if not rem:  # the pivot divides b: one row operation clears it
                rows[i] = [(y - q * x) % m for x, y in zip(rows[r], rows[i])]
                if transform:
                    urows[i] = [(y - q * x) % m for x, y in zip(urows[r], urows[i])]
                continue
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
        if b > 1:  # b divides m, so m // b annihilates the pivot entry
            a = m // b
            ann = [a * x % m for x in pivot_row]
            if any(ann):
                rows.append(ann)
                if transform:
                    urows.append([a * x % m for x in urows[r]])
        r += 1

    for i in range(r, len(rows)):
        if any(rows[i]):
            raise InvariantViolation("nonzero row escaped Howell reduction")
    H = tuple(map(tuple, rows[:r]))
    U = tuple(map(tuple, urows[:r])) if transform else None
    return H, U


def howell_form(mat, m: int) -> Matrix:
    return howell_complete(mat, m, transform=False)[0]


def leading_entries(H) -> list[tuple[int, int]]:
    """(column, entry) of the first nonzero entry of each row of a Howell
    matrix: its pivots."""
    leads = []
    for row in H:
        p = next(filter(None, row))
        leads.append((row.index(p), p))  # only zeros come before p
    return leads


def reduce_vector(H, v, m: int, leads=None) -> tuple[list[int], list[int]]:
    """Greedy reduction of v against a Howell-form matrix.

    Returns (residual, coeffs) as lists of ints; the residual is zero exactly
    when v lies in the row span, in which case v == coeffs @ H mod m.
    ``leads`` is ``leading_entries(H)``, for a caller that keeps it.
    """
    if leads is None:
        leads = leading_entries(H)
    w = [int(x) % m for x in v]
    coeffs = [0] * len(H)
    for i, ((c, p), row) in enumerate(zip(leads, H)):
        q, rem = divmod(w[c], p)
        if q and not rem:
            w = [(x - q * y) % m for x, y in zip(w, row)]
            coeffs[i] = q
    return w, coeffs


def contains_vector(H, v, m: int, leads=None) -> bool:
    residual, _ = reduce_vector(H, v, m, leads)
    return not any(residual)


def span_elements(H, m: int, n: int):
    """All elements of the row span of a Howell matrix with n columns, as
    tuples, in lexicographic coefficient order."""
    multiples = [
        [tuple([c * x % m for x in row]) for c in range(m // p)]
        for row, (_, p) in zip(H, leading_entries(H))
    ]
    zero = (0,) * n
    for combo in itertools.product(*multiples):
        yield tuple([sum(col) % m for col in zip(zero, *combo)])


def solve_row(A, b, m: int) -> tuple[int, ...] | None:
    """A row vector x with x @ A == b mod m, or None when none exists."""
    H, U = howell_complete(A, m)
    residual, coeffs = reduce_vector(H, b, m)
    if any(residual):
        return None
    x = combine(coeffs, U, m, len(A))
    if combine(x, A, m, len(residual)) != tuple(int(v) % m for v in b):
        raise InvariantViolation("solution does not satisfy the system")
    return x
