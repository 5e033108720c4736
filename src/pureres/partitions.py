"""Partition combinatorics and exact dimension counts for Schur modules.

Partitions are plain tuples of weakly decreasing nonnegative integers with
trailing zeros trimmed (row convention: parts are row lengths).  All
arithmetic is exact; no floats anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import comb, factorial, gcd, perm, prod


def trim(parts) -> tuple[int, ...]:
    """Canonical form: drop trailing zeros."""
    parts = tuple(parts)
    n = len(parts)
    while n > 0 and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def check_partition(parts) -> tuple[int, ...]:
    """Validate and canonicalize a partition, raising ValueError if invalid."""
    parts = tuple(parts)
    for i, p in enumerate(parts):
        if p < 0:
            raise ValueError(f"negative part {p} in {parts}")
        if i + 1 < len(parts) and parts[i + 1] > p:
            raise ValueError(f"parts not weakly decreasing: {parts}")
    return trim(parts)


def part(p, i: int) -> int:
    """i-th part (0-based), 0 beyond the end."""
    return p[i] if i < len(p) else 0


def conjugate(p) -> tuple[int, ...]:
    """Transpose the Young diagram: result[j] = #{i : p[i] >= j+1}."""
    p = trim(p)
    if not p:
        return ()
    return tuple([sum(1 for x in p if x >= j + 1) for j in range(p[0])])


def contains(outer, inner) -> bool:
    """Containment of diagrams: inner[i] <= outer[i] for all i."""
    return all(part(outer, i) >= x for i, x in enumerate(inner))


def is_horizontal_strip(outer, inner) -> bool:
    """True iff inner <= outer and outer/inner has at most one box per column.

    Equivalent to inner contained in outer with outer[i+1] <= inner[i].
    """
    outer, inner = trim(outer), trim(inner)
    if not contains(outer, inner):
        return False
    return all(part(outer, i + 1) <= x for i, x in enumerate(inner)) and (
        len(outer) <= len(inner) + 1
    )


@lru_cache(maxsize=128)
def _weyl_denominator(m: int, k: int) -> int:
    """prod_{m-k <= i < m} i!, the Weyl denominator of GL_m over that of m - k rows."""
    return prod(factorial(i) for i in range(m - k, m))


def _rows(lam, m: int, cap: int) -> tuple[tuple[int, ...], list[int], list[int]]:
    """lam padded to m parts, the most boxes each row of a strip over lam
    can take (row 0 up to the cap, row i > 0 up to lam_{i-1}), and the most
    the rows after each row can hold together, which telescopes to
    lam_i - lam_{m-1}.  Raises ValueError if lam has more than m parts
    besides trailing zeros."""
    lam = trim(lam)
    if len(lam) > m:
        raise ValueError(f"{lam} has more than {m} nonzero parts")
    lam += (0,) * (m - len(lam))
    room = [cap - lam[0]] + [lam[i - 1] - lam[i] for i in range(1, m)] if m else []
    return lam, room, [x - lam[-1] for x in lam]


def _strips(lam, e: int, m: int, cap: int) -> list[tuple[int, ...]]:
    """Every mu with at most m rows and mu_1 <= cap such that mu/lam is a
    horizontal strip of size e, in lexicographic descending order.  lam is
    a partition with at most m nonzero parts (or a weakly decreasing weight
    of m parts), e >= 0, cap >= lam_1.

    Rows are filled top to bottom, one row for all prefixes at a time.  Row
    i takes at most room[i] boxes (see _rows), and at least what the rows
    below it cannot hold, so every prefix kept completes to a strip.
    """
    lam, room, below = _rows(lam, m, cap)
    if e > sum(room):
        return []
    level = [((), e)]  # (parts, boxes left)
    for i in range(m):
        most, below_i = room[i], below[i]
        level = [
            (mu + (lam[i] + x,), left - x)
            for mu, left in level
            for x in range(left if left < most else most, max(left - below_i, 0) - 1, -1)
        ]
    return [trim(mu) for mu, _ in level]


def pieri_expand(lam, e: int, max_rows: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All mu with at most max_rows rows such that mu/lam is a horizontal
    strip of size e, in lexicographic descending order; with a cap, only
    those with mu_1 <= cap, which are enumerated alone.  lam is a partition
    or, as for dim_gl and the strip sums, a weakly decreasing weight of
    exactly max_rows parts with negative parts.

    This is the multiplicity-free Pieri decomposition of
    S_lam(E) (x) Sym_e(E) for dim E = max_rows.
    """
    lam = tuple(lam)
    if len(lam) != max_rows or min(lam, default=0) >= 0:
        lam = check_partition(lam)
    elif any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"parts not weakly decreasing: {lam}")
    if len(lam) > max_rows:
        raise ValueError(f"{lam} has more than {max_rows} nonzero parts")
    top = part(lam, 0) + e
    if cap is not None and cap < top:
        top = cap
    if e < 0 or top < part(lam, 0):
        return []
    return _strips(lam, e, max_rows, top)


def _weyl_quotient(num: int, m: int, k: int) -> int:
    """A sum of Weyl numerators over GL_m divided by _weyl_denominator(m, k)."""
    q, r = divmod(num, _weyl_denominator(m, k))
    assert r == 0
    return q


def _times_gaps(f: int, shifted, l_i: int) -> int:
    """f times l_a - l_i for every shifted part l_a of the rows above."""
    for l_a in shifted:
        f *= l_a - l_i
    return f


def pieri_dim(lam, e: int, m: int, cap: int) -> int:
    """Sum of dim S_mu(E), dim E = m, over the strips mu of
    pieri_expand(lam, e, m) with mu_1 <= cap; lam must be a partition with
    at most m nonzero parts (or a weakly decreasing weight of m parts) and
    cap >= lam_1.

    The walk of _strips, summed as it goes: the last row takes the boxes
    left, which the lower bound of the row above makes fit, so the last two
    rows multiply their factors straight into the sum and only the rows
    above them build prefixes."""
    lam, room, below = _rows(lam, m, cap)
    if e < 0 or e > sum(room):
        return 0
    if m < 2:
        return 1  # the strip is forced and its numerator is empty
    level = [((), e, 1)]  # (shifted parts, boxes left, numerator)
    for i in range(m - 2):
        base, most, below_i = lam[i] + m - i, room[i], below[i]
        grown = []
        for shifted, left, num in level:
            fewest = left - below_i if left > below_i else 0
            for l_i in range(base + fewest, base + (left if left < most else most) + 1):
                f = _times_gaps(num, shifted, l_i)
                grown.append((shifted + (l_i,), left - (l_i - base), f))
        level = grown
    base, most, last = lam[-2] + 2, room[-2], room[-1]
    total = 0
    for shifted, left, num in level:
        fewest = left - last if left > last else 0
        both = base + lam[-1] + 1 + left  # l_{m-2} + l_{m-1}
        for l_i in range(base + fewest, base + (left if left < most else most) + 1):
            l_m = both - l_i
            f = num * (l_i - l_m)
            for l_a in shifted:
                f *= (l_a - l_i) * (l_a - l_m)
            total += f
    return _weyl_quotient(total, m, m)


def pieri_dims(lam, m: int, cap: int) -> list[int]:
    """pieri_dim(lam, e, m, cap) for e = 0, ..., cap - lam_m, every strip
    size that fits under the cap; m >= 1.

    One packed integer determinant.  Row a of a strip takes x_a in
    0..room_a boxes (see _rows), independently of the other rows, and its
    shifted part is y_a = l_a + x_a, l_a = lam_a - lam_m + m - 1 - a.  The
    Weyl numerator prod_{a<b} (y_a - y_b) is the Vandermonde det
    y_a^(m-1-b), and a determinant is linear in each row, so the sum of
    t^|x| times it over all strips is det sum_x t^x y_a^(m-1-b).  The c
    rows with room 0 (C) are constant: their pairs give dim_gl(mu, c) *
    prod_{i<c} i!, mu_j = l_j - (c - 1 - j) over C, which leaves prod_{c <=
    i < m} i! to divide by.  Each of the r other rows a takes the factor
    w_a(x_a) = prod_{c in C} |y_a - l_c| of its pairs with C, divided by
    g_a, the gcd of w_a over x_a, which joins the constant: an r x r det
    sum_x t^x w_a(x) / g_a * y_a^(r-1-b) is left.

    It is evaluated at t = T = 2^B and read off in base T.  The shifted
    parts of a strip strictly decrease, so the coefficient of t^e is a sum
    of at most prod(room_a + 1) terms prod_a w_a / g_a * prod_{a<b}
    (y_a - y_b) over the strips of size e, none negative, each at most
    prod_a max(w_a / g_a) * span^(r(r-1)/2), where span = l_0 + room_0 is
    the largest difference of two shifted parts.  So every coefficient is
    below 2^B for B = bitlen(prod(room_a + 1)) + r(r-1)/2 * bitlen(span)
    plus, when C is not empty, sum_a bitlen(max(w_a / g_a)) (with C empty
    every w_a is 1), and every base-T digit of the determinant is its
    coefficient exactly."""
    lam, room, below = _rows(lam, m, cap)
    if room[0] < 0:
        return [0] * (cap - lam[-1] + 1)
    if m < 2:
        return [1] * (room[0] + 1)  # one strip of each size, of dimension 1
    shifted = [x + m - 1 - a for a, x in enumerate(below)]
    fixed = [y for y, x in zip(shifted, room) if not x]
    c, rows = len(fixed), []
    r = m - c
    common = dim_gl([y - c + 1 + j for j, y in enumerate(fixed)], c)
    bits = prod([x + 1 for x in room]).bit_length()
    bits += r * (r - 1) // 2 * (shifted[0] + room[0]).bit_length()
    for y0, most in zip(shifted, room):
        if most:
            ys, ws = range(y0 + most, y0 - 1, -1), [1] * (most + 1)  # Horner: T^most first
            if fixed:
                ws = [abs(prod([y - c for c in fixed])) for y in ys]
                g = gcd(*ws)
                common *= g
                ws = [w // g for w in ws]
                bits += max(ws).bit_length()
            rows.append((ys, ws))
    mat = []
    for ys, ws in rows:
        row = [0] * r
        for y, f in zip(ys, ws):
            for b in range(r - 1, -1, -1):
                row[b] = (row[b] << bits) + f
                f *= y
        mat.append(row)
    packed, mask, den = _int_det(mat), (1 << bits) - 1, _weyl_denominator(m, r)
    return [common * (packed >> bits * e & mask) // den for e in range(sum(room) + 1)]


def _dim_by_columns(lam, m: int) -> int:
    """dim S_lam(E), dim E = m, by the hook-content formula over the w
    columns of the partition lam: the contents of column c give
    perm(m + c, lam'_c), and the hook lengths prod l_c! / prod_{a<c}
    (l_a - l_c) with l_c = lam'_c + w - 1 - c: w(w - 1)/2 differences,
    while perm and factorial multiply one factor per box in C."""
    rev, w = lam[::-1], lam[0]  # lam'_c = len(lam) - #{parts <= c}
    num = den = 1
    shifted: list[int] = []
    for c in range(w):
        height = len(lam) - bisect_right(rev, c)
        l_c = height + w - 1 - c
        num *= perm(m + c, height)
        den *= factorial(l_c)
        for l_a in shifted:
            num *= l_a - l_c
        shifted.append(l_c)
    return num // den


def dim_gl(lam, m: int) -> int:
    """dim S_lam(E) for dim E = m.

    Accepts a partition, or a weakly decreasing weight of exactly m parts
    with negative parts, twisted by its last part into a partition (the
    determinant twist); more than m nonzero parts give 0.  A partition with
    fewer columns than nonzero rows is counted by its columns, any other by
    the Weyl product over its k nonzero rows, l_a = lam_a + m - 1 - a: the
    pairs of row a with the m - k zero rows give perm(l_a, m - k), and those
    of two zero rows cancel all but _weyl_denominator(m, k)."""
    lam = tuple(lam)
    if lam and min(lam) < 0:
        if len(lam) != m:
            raise ValueError(f"weight {lam} with a negative part needs exactly {m} parts")
        lam = check_partition([x - lam[-1] for x in lam])
    else:
        lam = trim(lam)
        if len(lam) > m:
            return 0
    if lam and lam[0] < len(lam):
        return _dim_by_columns(lam, m)
    k = len(lam)
    shifted = [x + m - 1 - a for a, x in enumerate(lam)]
    num = 1
    for a, l_a in enumerate(shifted):
        if k < m:
            num *= perm(l_a, m - k)
        for l_b in shifted[a + 1 :]:
            num *= l_a - l_b
    return _weyl_quotient(num, m, k)


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a small integer matrix."""
    a = [row[:] for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                return 0
            a[k], a[r], sign = a[r], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _complete(k: int, m: int, n: int) -> int:
    """h_k(1^m / 1^n), the coefficient of t^k in (1 + t)^n / (1 - t)^m:
    the sum over j of C(n, j) * C(m - 1 + k - j, k - j), each term from the
    one before; 0 for k < 0."""
    if k < 0:
        return 0
    if m == 0:
        return comb(n, k)
    odd, even = 1, comb(m - 1 + k, k)
    total = even
    for j in range(min(k, n)):
        odd = odd * (n - j) // (j + 1)
        even = even * (k - j) // (m - 1 + k - j)
        total += odd * even
    return total


def dim_skew(outer, inner, n: int) -> int:
    """Number of semistandard skew tableaux of shape outer/inner with entries
    in {1..n}, via the Jacobi-Trudi determinant det h_{outer_i - inner_j - i + j}
    with h_k evaluated at n ones: h_k(1^n) = C(n+k-1, k).
    """
    outer = check_partition(outer)
    inner = check_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"{inner} not contained in {outer}")
    cols = [part(inner, j) - j for j in range(len(outer))]
    return _int_det([[_complete(x - i - c, n, 0) for c in cols] for i, x in enumerate(outer)])


def dim_super(lam, m: int, n: int) -> int:
    """Dimension of the Z/2-graded Schur module of a (m, n)-dimensional
    graded space, the hook Schur function s_lam(1^m / 1^n).

    By the supersymmetric Jacobi-Trudi identity it is det h_{lam_i - i + j}
    of size len(lam), with h_k = _complete(k, m, n).  Zero exactly when lam
    does not fit in the (m, n) hook, which is answered first, as is n = 0
    (the Weyl dimension)."""
    lam = check_partition(lam)
    if m < 0 or n < 0:
        raise ValueError(f"graded dimension ({m}, {n}) has a negative part")
    ell = len(lam)
    if ell > m and lam[m] > n:
        return 0
    if n == 0:
        return dim_gl(lam, m)
    h = {k: _complete(k, m, n) for k in {x - i + j for i, x in enumerate(lam) for j in range(ell)}}
    return _int_det([[h[x - i + j] for j in range(ell)] for i, x in enumerate(lam)])


def complement_in_rectangle(lam, width: int, height: int) -> tuple[int, ...]:
    """180-degree rotation of the complement of lam in a width x height box."""
    lam = check_partition(lam)
    if len(lam) > height or (lam and lam[0] > width):
        raise ValueError(f"{lam} does not fit in {width}x{height} rectangle")
    padded = lam + (0,) * (height - len(lam))
    return trim([width - padded[height - 1 - i] for i in range(height)])
