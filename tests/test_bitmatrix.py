"""The tiled bit-matrix transpose against a per-bit transpose.

:func:`repro.structural.bitmatrix.transpose` packs an ``n``-by-``n`` matrix
of int rows into one int with a row stride of ``W`` bits, the smallest
multiple of 8 not below ``n``, transposes every 8-by-8 tile with three
delta swaps and the tile grid with strided byte slices.  It must return the
columns a bit-by-bit transpose returns, for every size (the padding edges
1, 7, 8, 9 and powers of two plus or minus one among them), and calls of
different sizes in any order must not disturb each other.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.structural.bitmatrix import transpose

EDGE_SIZES = sorted(
    {0, 1, 7, 8, 9}
    | {size for k in range(4, 9) for size in (2**k - 1, 2**k, 2**k + 1)}
)


def per_bit_transpose(rows: list[int]) -> list[int]:
    columns = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1:
                columns[j] |= 1 << i
    return columns


@st.composite
def square_matrices(draw, sizes=st.integers(0, 300)):
    n = draw(sizes)
    full = (1 << n) - 1
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_transpose_matches_per_bit_transpose(rows):
    assert transpose(rows) == per_bit_transpose(rows)


@settings(max_examples=80, deadline=None)
@given(square_matrices(sizes=st.sampled_from(EDGE_SIZES)))
def test_transpose_at_padding_edges(rows):
    assert transpose(rows) == per_bit_transpose(rows)


def test_single_bits_land_on_their_mirror():
    for n in EDGE_SIZES[1:]:  # every size but 0
        for i, j in {(0, 0), (0, n - 1), (n - 1, 0), (n // 2, n // 3)}:
            rows = [0] * n
            rows[i] = 1 << j
            expected = [0] * n
            expected[j] = 1 << i
            assert transpose(rows) == expected, (n, i, j)


def test_interleaved_sizes_do_not_disturb_each_other():
    matrices = [
        [(3 << i) & 0x1FF for i in range(9)],  # width 16
        [(5 << i) & 0x7F for i in range(7)],  # width 8
        [(1 << 16) - 1 - (1 << i) for i in range(16)],  # width 16
        [0x155 ^ (1 << i) for i in range(9)],  # width 16
    ]
    expected = [per_bit_transpose(rows) for rows in matrices]
    for _ in range(2):
        for rows, columns in zip(matrices, expected):
            assert transpose(rows) == columns
