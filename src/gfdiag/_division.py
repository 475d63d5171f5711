"""Fraction-free division of the series kernel's integer box by one denominator factor.

gfdiag.series builds the box and picks the path for each division (see
its module docstring): cell by cell (_divide_box, with _solve_row for
the terms in the inner variable alone), or, for a run of outer-only
factors, on rows packed into one integer each (_divide_packed), where
_packs finds that it pays at the digit width _digit_bytes proves.  For a
diagonal whose remaining terms all have j <= i, both paths divide each
row only from its diagonal cell on: _divide_box always, _divide_packed
where _bands finds that it pays.  A unit step runs in C: a term (j, -1)
alone in the inner variable is a running sum (itertools.accumulate), and
a term in outer with v = +-1 maps operator.add or sub over a row slice.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, repeat
from operator import add, sub

_Box = list[list[int]]

#: Digit width, in bits, at which a packed step costs about what the
#: per-cell step it replaces does (see _packs).  Packed over per-cell
#: speed-up of diagonal_series, in-process, median of 3 runs each best of
#: 2, at n = 40 / 100 / 200 / 300 / 400 / 600 (2-core Xeon VM, Python
#: 3.11), with k at n = 200 and 400; both paths keep only the diagonal's
#: band where they can (see _bands):
#:   trib.G                  2.2  2.2  1.5  1.1  0.86 0.61  (k = 656, 1312)
#:   penta.G                 2.2  2.1  1.3  1.0  0.69 0.53  (k = 800, 1600)
#:   1/((1+2*x)*(1-2*y)^2)   1.5  1.7  1.3  0.96 0.94 0.83  (k = 408, 808)
#:   1/(1-x*y)               1.2  2.4  4.2  5.6  8.2  11.4  (k = 8, 8)
#: The crossover falls at k = 1100-1200 for the two catalog factors, whose
#: steps shift columns.  A factor in the outer variable alone keeps the
#: band cell by cell but not packed, and crosses over at about half that
#: width, as _packs counts it.
_PACK_BITS = 1152

#: Packed row width k * width, in bits, from which a diagonal's packed rows
#: pay to keep only their band (see _bands).  Band over whole-row time of
#: diagonal_series, in-process, best of 9, at k * width = 2240-6400 (n =
#: 40), 8320-10240 and 19968-25600 (n = 80), and 51200-160000 (n = 200):
#: 0.92-1.20, 0.94-1.08, 0.76-0.85 and 0.66-0.97, over trib.G, penta.G,
#: 1/(1-x-2*x*y), 1/((1-y)*(1-x-2*x*y)), 1/(1-x-x*y-x^2*y^2) and
#: convolution GFs.  1/(1-x*y), with 8-bit digits, read 1.09-1.26 at
#: every n up to 200.
_BAND_BITS = 16384


def _solve_row(e: list[int], steps: Sequence[tuple[int, int]]) -> None:
    """In place, for m ascending: e[m] -= sum of v * e[m - j] over steps (j, v), j <= m.

    steps is sorted by j, and every j is at least 1.  A single step (j, -1),
    division by 1 - inner^j, is a running sum over each class of m mod j,
    taken by itertools.accumulate in C.
    """
    if len(steps) == 1 and steps[0][1] == -1:
        j = steps[0][0]
        if j == 1:
            e[:] = accumulate(e)
        else:
            for r in range(min(j, len(e))):
                e[r::j] = accumulate(e[r::j])
        return
    for m in range(len(e)):
        acc = e[m]
        for j, v in steps:
            if j > m:
                break
            acc -= v * e[m - j]
        e[m] = acc


def _divide_box(box: _Box, terms: list[tuple[int, int, int]], f0: int, d: int,
                rows: int, cols: int, band: int | None) -> tuple[int, int]:
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
    With band, each row n runs only from column max(0, n + band) on, and
    the cells left of that line are left as they stand (see _series_grid).
    """
    if f0 != 1:
        powers = [1]
        for n, row in enumerate(box[:rows]):
            c = 0 if band is None else max(0, n + band)
            end = cols
            while end > c and not row[end - 1]:
                end -= 1
            while len(powers) < n + end:
                powers.append(powers[-1] * f0)
            row[c:end] = [v * powers[n + m] if v else 0 for m, v in enumerate(row[c:end], c)]
    # Row by row, so the i = 0 terms come sorted by j, as _solve_row needs.
    steps = [(i, j, v * d ** (i + j) * f0 ** (i + j - 1)) for i, j, v in terms if i + j]
    inner = [(j, v) for i, j, v in steps if i == 0]
    outer = [(i, j, v) for i, j, v in steps if i > 0]
    if outer:
        rows = len(box)
    if any(j for _, j, _ in steps):
        cols = len(box[0])
    for n, row in enumerate(box[:rows]):
        c = 0 if band is None else max(0, n + band)
        for i, j, v in outer:
            if i > n:
                continue
            a, prev = max(c, j), box[n - i]
            if a > j:
                prev = prev[a - j:cols - j]
            # Most catalog factors have unit coefficients: skip multiplying by them.
            if v == 1:
                row[a:cols] = map(sub, row[a:cols], prev)
            elif v == -1:
                row[a:cols] = map(add, row[a:cols], prev)
            else:
                row[a:cols] = [x - v * y for x, y in zip(row[a:cols], prev)]
        if inner:
            _solve_row(row, inner)
    return rows, cols


def _packable(terms: list[tuple[int, int, int]], f0: int) -> bool:
    """Whether a factor can divide packed rows: constant term 1, outer in every other term."""
    return f0 == 1 and len(terms) > 1 and all(i for i, _, _ in terms[1:])


def _packs(k: int, steps: int, rows: int, packed: int, unpacked: bool, halved: bool) -> bool:
    """Whether a run of steps per row, over rows rows, pays to pack at digit width k.

    Costs are counted in per-cell steps, one cell each: a packed step
    costs k / _PACK_BITS per cell, packing a cell 4 and unpacking one 7
    (measured on rows of 200 cells, 8 to 656 bits per digit).  packed rows
    are packed, and every row is unpacked if unpacked.  Each cost is paid
    per cell, so the row width cancels.  If halved, the per-cell path
    divides only the band of each row, about half its cells, and the
    packed path whole rows: every packed cost counts twice.
    """
    h = 1 + halved
    return rows * steps * (_PACK_BITS - h * k) > h * _PACK_BITS * (4 * packed + 7 * rows * unpacked)


def _bands(k: int, width: int, stages: list[list[tuple[int, int, int]]]) -> bool:
    """Whether a diagonal's packed rows, whose steps all have j <= i, pay to keep only their band.

    A band row is shifted right by i - j digits a step where a whole row
    is shifted left by j, and costs a bias add a step and a mask a row.
    So a run with j = 0 throughout, which shifts no whole row, gains
    nothing, and rows narrower than _BAND_BITS lose more to the extra
    steps than their halved width saves (see _BAND_BITS).
    """
    return k * width >= _BAND_BITS and any(j for steps in stages for _, j, _ in steps)


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
                   width: int, size: int, diagonal: int | None, band: bool) -> list[int] | None:
    """Divide the first count rows of box by a run of outer-only factors, one packed integer each.

    Row n keeps the columns c0 <= m < width, c0 = c0(n), as w = width - c0
    digits of k = 8 * size bits: r = sum c[n][m] * 2^(k*(m - c0)), its
    evaluation at inner = 2^k.  That is a ring map, so a step (i, j, v) is
    r -= v * (row n - i shifted by j + c0(n - i) - c0(n) digits) on whole
    rows; a stage with j > 0 keeps each row mod inner^w as the balanced
    residue of r mod 2^(k*w).  _digit_bytes proves every cell below
    2^(k-1) in magnitude, so each row is the one integer in (-2^(k*w-1),
    2^(k*w-1)) congruent to it, and unpacks digit by digit.  Each balanced
    digit plus half = 2^(k-1) lies in [0, 2^k), so a stage whose largest
    right shift is S keeps each row plus the half-digit bias of its S
    lowest digits: a right shift by s <= S then drops digits exactly, and
    what the biases of the shifted rows take off row n is one sum per
    plan, added back once a row.

    Each stage reads rows n - i >= 1 back of its own output, so row n runs
    through every stage before row n + 1 starts, and a stage keeps only
    its last max(i) rows.  Stages stream in groups that keep at most count
    rows, and the rows between two groups are held, each let go once the
    next group reads it, so a run of many stages holds at most about twice
    its rows.  Rows from rows on enter as 0, and box need not hold them.

    With diagonal, the cell [n][n + diagonal] of each row is read and the
    box row dropped: the result is those cells from the first n with
    n + diagonal >= 0.  With band, which needs diagonal and every step with
    j <= i, a cell on or right of the line m = n + diagonal reads only
    cells on or right of it, so c0(n) = min(width, max(0, n + diagonal)):
    each row keeps the band from its diagonal cell on, which is its digit
    0.  Otherwise c0 = 0, and without diagonal each row is unpacked back
    into the box, which must hold count rows.
    """
    k = 8 * size
    half, digit, ones = 1 << (k - 1), (1 << k) - 1, (1 << (k * width)) - 1
    bias = int.from_bytes(half.to_bytes(size, "little") * width, "little")
    top = max(steps[-1][0] for steps in stages)
    # Rows past the first top shift every step alike if their c0 grew by 0
    # over their last top rows, or by top: c0 grows by 0 or 1 a row.
    if band:
        starts = [min(width, max(0, n + diagonal)) for n in range(count)]
        shapes = [g if n >= top and (g := c - starts[n - top]) in (0, top) else -1 - n
                  for n, c in enumerate(starts)]
    else:
        starts, shapes = [0] * count, None

    def plans(steps: list[tuple[int, int, int]]) -> tuple[int, dict[int, tuple[list, int]] | list]:
        """(low, plans).  low is the half-digit bias of the stage's largest right shift,
        which every row the stage keeps carries.  A plan is the steps as (i, k * left
        shift, v), whose loop stops at the first i past the row, and the sum of the biases
        they bring in, one for each shape.  Without band the steps shift every row alike,
        by j digits, and bring in no bias: the plans are that one list of steps."""
        if not band:
            return 0, [(i, k * j, v) for i, j, v in steps]
        low = bias & ((1 << k * max(i - j for i, j, _ in steps)) - 1)
        out = {}
        # Each shape's last row, which every step of its rows reaches.
        for shape, n in dict(zip(shapes, range(count))).items():
            c = starts[n]
            ops = [(i, k * (j + starts[n - i] - c) if i <= n else 0, v) for i, j, v in steps]
            out[shape] = ops, sum(v * (low << s if s >= 0 else low >> -s)
                                  for i, s, v in ops if i <= n)
        return low, out

    def packed() -> Iterator[int]:
        for n, c in enumerate(starts):
            if n >= rows:
                yield 0
                continue
            packed_row = b"".join(map(int.to_bytes, map(add, box[n][c:width], repeat(half)),
                                      repeat(size), repeat("little")))
            yield int.from_bytes(packed_row, "little") - (bias >> k * c)
            if diagonal is not None:
                box[n] = None

    def divided(source: Iterable[int], group: list) -> Iterator[int]:
        plan = [(deque(maxlen=steps[-1][0]), any(j for _, j, _ in steps), *plans(steps))
                for steps in group]
        c, mask = 0, ones
        mod, limit = mask + 1, (mask >> 1) + 1
        for n, r in enumerate(source):
            if shapes and starts[n] != c:
                c = starts[n]
                mask = ones >> k * c
                mod, limit = mask + 1, (mask >> 1) + 1
            for done, cut, low, ops in plan:
                if shapes:
                    ops, corr = ops[shapes[n]]
                    if corr:
                        r += corr
                for i, s, v in ops:
                    if i > n:
                        break
                    prev = done[-i]
                    if s > 0:
                        prev <<= s
                    elif s:
                        prev >>= -s
                    if v == 1:
                        r -= prev
                    elif v == -1:
                        r += prev
                    else:
                        r -= v * prev
                if cut:
                    r &= mask
                    if r >= limit:
                        r -= mod
                done.append(r + low if low else r)
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
        # Cell n + diagonal is digit n + diagonal - c0(n) of row n.  Digit 0,
        # as on a band, is r mod 2^k, balanced by flipping its top bit.
        return [0 if t >= width else ((r & digit) ^ half) - half if t == c
                else ((r + bias) >> k * (t - c) & digit) - half
                for t, c, r in zip(range(diagonal, count + diagonal), starts, out) if t >= 0]
    total = size * width
    slices = list(map(slice, range(0, total, size), range(size, total + size, size)))
    for row, r in zip(box, out):
        b = (r + bias).to_bytes(total, "little")
        row[:width] = map(sub, map(int.from_bytes, map(b.__getitem__, slices), repeat("little")),
                          repeat(half))
    return None
