"""Transpose of a square bit matrix held as one ``int`` per row.

Row ``i`` of an ``n``-by-``n`` matrix is an int below ``2**n`` whose bit
``j`` is entry ``(i, j)``.  :func:`transpose` returns the columns in the
same form: bit ``i`` of column ``j`` is entry ``(i, j)``.

Setting the transposed bits one at a time costs one interpreter step per
set bit, ``n**2`` steps on a dense matrix.  Here the rows are packed into
one int with a stride of ``W`` bits, ``W`` the smallest multiple of 8 not
below ``n``, so the matrix is a grid of 8-by-8 tiles with one byte per
tile row.  Entry ``(8a + r, 8b + c)`` is bit ``c`` of byte ``b`` of row
``8a + r``.  The transpose is two whole-matrix moves:

* every tile is transposed in place by three delta swaps over the packed
  int, ``t = (M ^ (M >> s)) & m;  M ^= t | (t << s)`` with
  ``s = k * (W - 1)`` for ``k = 4, 2, 1``, where ``m`` selects the
  upper-right ``k``-by-``k`` block of every ``2k``-by-``2k`` block of a
  tile;
* the tile grid is transposed while unpacking: output row ``8b + r`` is
  byte ``b`` of rows ``r, 8 + r, 16 + r, ...``, which is one slice of
  step ``W`` over the packed bytes.

The masks are periodic byte patterns, built per call from their period, so
nothing outlives a call.
"""

from __future__ import annotations

# (k, the tile-row byte with the columns whose bit k is set)
_TILE_SWAPS = ((4, 0xF0), (2, 0xCC), (1, 0xAA))


def transpose(rows: list[int]) -> list[int]:
    """The columns of the square bit matrix ``rows`` (each row below ``2**n``)."""
    n = len(rows)
    if not n:
        return []
    size = (n + 7) // 8  # bytes per packed row
    width = 8 * size
    from_bytes = int.from_bytes
    matrix = from_bytes(
        b"".join([row.to_bytes(size, "little") for row in rows]), "little"
    )
    blank = bytes(size)
    for k, pattern in _TILE_SWAPS:
        # k rows that carry the pattern (bit k of the row index clear), k blank
        period = bytes((pattern,)) * size * k + blank * k
        mask = from_bytes(period * (width // (2 * k)), "little")
        shift = k * (width - 1)
        swap = (matrix ^ (matrix >> shift)) & mask
        matrix ^= swap | (swap << shift)
    data = matrix.to_bytes(width * size, "little")
    return [
        from_bytes(data[(j & 7) * size + (j >> 3)::width], "little")
        for j in range(n)
    ]
