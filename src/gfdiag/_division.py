"""Fraction-free division of the series kernel's integer box by one denominator factor.

gfdiag.series builds the box and picks the path for each division (see
its module docstring): cell by cell (_divide_box, with _solve_row for
the terms in the inner variable alone), or, for a run of outer-only
factors, on rows packed into one integer each (_divide_packed), where
_packs finds that it pays at the digit width _digit_bytes proves.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import add, sub

_Box = list[list[int]]

#: Digit width, in bits, at which a packed step costs about what the
#: per-cell step it replaces does (see _packs).  Packed over per-cell
#: speed-up of diagonal_series, in-process, best of 2, at n = 40 / 100 /
#: 200 / 300 / 400 / 600 (2-core Xeon VM, Python 3.11), with k at n = 200
#: and 400:
#:   trib.G                  3.0  2.6  1.6  1.2  1.0  0.57  (k = 656, 1312)
#:   penta.G                 3.4  2.5  1.5  0.92 0.71 0.41  (k = 800, 1600)
#:   1/((1+2*x)*(1-2*y)^2)   1.8  2.4  2.1  2.1  1.8  1.5   (k = 408, 808)
#:   1/(1-x*y)               1.5  2.7  4.6  6.1  7.9  9.7   (k = 8, 8)
#: The crossover falls at k = 1150-1300 for the two catalog factors, whose
#: steps shift columns.  A factor in the outer variable alone shifts none
#: and pays to wider digits, but is held to the same width.
_PACK_BITS = 1152


def _solve_row(e: list[int], steps: Sequence[tuple[int, int]]) -> None:
    """In place, for m ascending: e[m] -= sum of v * e[m - j] over steps (j, v), j <= m.

    steps is sorted by j, and every j is at least 1.
    """
    for m in range(len(e)):
        acc = e[m]
        for j, v in steps:
            if j > m:
                break
            acc -= v * e[m - j]
        e[m] = acc


def _divide_box(box: _Box, terms: list[tuple[int, int, int]], f0: int, d: int,
                rows: int, cols: int) -> tuple[int, int]:
    """Divide box in place by the factor sum v * outer^i * inner^j over terms.

    f0 is the factor's constant term.  box holds the series at
    (d*outer, d*inner) times d: entry [n][m] carries c[n][m] * d^(n+m+1).
    So does the result, with d*f0 in place of d.  At (d*outer, d*inner)
    the factor's coefficients are v * d^(i+j), and the recurrence runs on
    the box scaled by f0^(n+m), with the terms v * d^(i+j) * f0^(i+j-1).
    The powers of f0 are built only as far as a nonzero entry reads them.

    Only box[:rows] and the first cols entries of each row may be nonzero.
    A term with i > 0 can reach every row and one with j > 0 every column;
    the division runs over the cells it can reach and returns their limits.
    """
    if f0 != 1:
        powers = [1]
        for n, row in enumerate(box[:rows]):
            end = cols
            while end and not row[end - 1]:
                end -= 1
            while len(powers) < n + end:
                powers.append(powers[-1] * f0)
            row[:end] = [v * powers[n + m] if v else 0 for m, v in enumerate(row[:end])]
    # Row by row, so the i = 0 terms come sorted by j, as _solve_row needs.
    steps = [(i, j, v * d ** (i + j) * f0 ** (i + j - 1)) for i, j, v in terms if i + j]
    inner = [(j, v) for i, j, v in steps if i == 0]
    outer = [(i, j, v) for i, j, v in steps if i > 0]
    if outer:
        rows = len(box)
    if any(j for _, j, _ in steps):
        cols = len(box[0])
    for n, row in enumerate(box[:rows]):
        for i, j, v in outer:
            if i > n:
                continue
            prev = box[n - i]
            # Most catalog factors have unit coefficients: skip multiplying by them.
            if v == 1:
                row[j:cols] = [a - b for a, b in zip(row[j:cols], prev)]
            elif v == -1:
                row[j:cols] = [a + b for a, b in zip(row[j:cols], prev)]
            else:
                row[j:cols] = [a - v * b for a, b in zip(row[j:cols], prev)]
        if inner:
            _solve_row(row, inner)
    return rows, cols


def _packable(terms: list[tuple[int, int, int]], f0: int) -> bool:
    """Whether a factor can divide packed rows: constant term 1, outer in every other term."""
    return f0 == 1 and len(terms) > 1 and all(i for i, _, _ in terms[1:])


def _packs(k: int, steps: int, rows: int, packed: int, unpacked: bool) -> bool:
    """Whether a run of steps per row, over rows rows, pays to pack at digit width k.

    Costs are counted in per-cell steps, one cell each: a packed step
    costs k / _PACK_BITS per cell, packing a cell 4 and unpacking one 7
    (measured on rows of 200 cells, 8 to 656 bits per digit).  packed rows
    are packed, and every row is unpacked if unpacked.  Each cost is paid
    per cell, so the row width cancels.
    """
    return rows * steps * (_PACK_BITS - k) > _PACK_BITS * (4 * packed + 7 * rows * unpacked)


def _digit_bytes(box: _Box, stages: list[list[tuple[int, int, int]]], count: int, rows: int,
                 cols: int) -> int:
    """Bytes per packed cell that hold every cell a run of outer-only divisions computes.

    A stage's row n is its input row n minus v times its own output row
    n - i, shifted by j columns, over its steps (i, j, v).  So if M_n
    bounds |cell| in the stage's input row n, B_n + sum |v| * M_(n-i)
    bounds every partial sum of its output row n, and the next stage reads
    that bound as its input.  B_n, the run's input bound, is row n's
    largest |cell| as it stands, and 0 from row rows on, up to count rows.
    A cell of magnitude below 2^(k-1) is one balanced digit of k bits, so
    k = bit_length(max M) + 1, the extra bit holding the sign, rounded up
    to whole bytes.
    """
    bound = [max(map(abs, row[:cols])) for row in box[:rows]] + [0] * (count - rows)
    for steps in stages:
        weights: dict[int, int] = {}
        for i, _, v in steps:
            weights[i] = weights.get(i, 0) - abs(v)
        # bound[n] -= w * bound[n - i] for the negated weights, in place.
        _solve_row(bound, list(weights.items()))
    return (max(bound).bit_length() + 8) // 8


def _divide_packed(box: _Box, stages: list[list[tuple[int, int, int]]], count: int, rows: int,
                   width: int, size: int, diagonal: int | None) -> list[int] | None:
    """Divide the first count rows of box by a run of outer-only factors, one packed integer each.

    Row n of the box becomes r = sum c[n][m] * 2^(k*m) over its first width
    columns, k = 8 * size.  Evaluation at inner = 2^k is a ring map, so a
    step (i, j, v) is r -= v * (row n - i << k*j) on whole rows; a stage
    with j > 0 keeps each row mod inner^width as the balanced residue of r
    mod 2^(k*width).  _digit_bytes proves every cell below 2^(k-1) in
    magnitude, so each row is the one integer in (-2^(k*width-1),
    2^(k*width-1)) congruent to it, and unpacks digit by digit.

    Each stage reads rows n - i >= 1 back of its own output, so row n runs
    through every stage before row n + 1 starts, and a stage keeps only
    its last max(i) rows.  Stages stream in groups that keep at most count
    rows, and the rows between two groups are held, each let go once the
    next group reads it, so a run of many stages holds at most about twice
    its rows.  Rows from rows on enter as 0, and box need not hold them.
    With diagonal, the cell [n][n + diagonal] of each row is read and the
    box row dropped: the result is those cells from the first n with
    n + diagonal >= 0.  Without it, each row is unpacked back into the box,
    which must hold count rows.
    """
    k = 8 * size
    half, total = 1 << (k - 1), size * width
    digit, mod = (1 << k) - 1, 1 << (k * width)
    mask, top = mod - 1, mod >> 1
    bias = int.from_bytes(half.to_bytes(size, "little") * width, "little")

    def packed() -> Iterator[int]:
        for n in range(count):
            if n >= rows:
                yield 0
                continue
            yield int.from_bytes(b"".join(map(int.to_bytes, map(add, box[n][:width], repeat(half)),
                                              repeat(size), repeat("little"))), "little") - bias
            if diagonal is not None:
                box[n] = None

    def divided(source: Iterable[int], group: list) -> Iterator[int]:
        plan = [(deque(maxlen=steps[-1][0]), [(i, k * j, v) for i, j, v in steps],
                 any(j for _, j, _ in steps)) for steps in group]
        for n, r in enumerate(source):
            for done, steps, cut in plan:
                for i, s, v in steps:
                    if i > n:
                        break
                    prev = done[-i] << s if s else done[-i]
                    if v == 1:
                        r -= prev
                    elif v == -1:
                        r += prev
                    else:
                        r -= v * prev
                if cut:
                    r &= mask
                    if r >= top:
                        r -= mod
                done.append(r)
            yield r

    def drained(held: list[int]) -> Iterator[int]:
        held.reverse()
        while held:
            yield held.pop()

    out: Iterable[int] = packed()
    group, kept = [], 0
    for steps in stages:
        if group and kept + steps[-1][0] > count:
            out, group, kept = drained(list(divided(out, group))), [], 0
        group.append(steps)
        kept += steps[-1][0]
    out = divided(out, group)
    if diagonal is not None:
        return [((r + bias) >> k * t & digit) - half if t < width else 0
                for t, r in enumerate(out, diagonal) if t >= 0]
    slices = list(map(slice, range(0, total, size), range(size, total + size, size)))
    for row, r in zip(box, out):
        b = (r + bias).to_bytes(total, "little")
        row[:width] = map(sub, map(int.from_bytes, map(b.__getitem__, slices), repeat("little")),
                          repeat(half))
    return None
