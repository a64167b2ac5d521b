"""`textfmt.format17` against Python's `format(x, '.17g')`, value by value.

Every data file's bytes come from the kernel, so it must match the per-cell
reference on every float64: both decimal switches of '%g', both exponent
widths, subnormals, NaN and infinities, ties and carries into a new decade.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflow import textfmt
from mcflow.textfmt import format17, format_pairs


def reference(values, blank=None) -> bytes:
    """Each row's cells as `format(x, '.17g')` ('' where blank), joined by
    ',' and ended by '\\n'; a 1D array is one column."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:  # '%.17g' % x is format(x, '.17g'), and faster
        return ("%.17g\n" * values.size % tuple(values.tolist())).encode()
    if blank is None:
        blank = np.zeros(values.shape, bool)
    return "".join(
        ",".join("" if b else format(x, ".17g") for x, b in zip(row, brow))
        + "\n" for row, brow in zip(values.tolist(), blank.tolist())).encode()


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(7).integers(0, 2 ** 64, 10 ** 6,
                                             dtype=np.uint64)
    values = bits.view(np.float64)
    assert format17(values) == reference(values)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=40))
@settings(max_examples=100, deadline=None, database=None)
def test_hypothesis_floats(values):
    assert format17(np.array(values, dtype=float)) == reference(values)


def test_zeros_subnormals_and_special_values():
    tiny = np.finfo(float).tiny
    values = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0),
              np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 0.1, 1.0 / 3.0,
              np.finfo(float).max, -np.finfo(float).max]
    assert format17(values) == reference(values)


def test_powers_of_ten_and_their_neighbours():
    values = with_neighbours([10.0 ** k for k in range(-300, 301)])
    assert format17(values) == reference(values)
    assert format17(-values) == reference(-values)


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17,
                                    1e99, 1e100, 1e-99, 1e-100])
def test_notation_and_exponent_width_switches(switch):
    # '%g' turns to fixed point at 1e-4 and back at 1e17; the exponent
    # takes a third digit at 1e+100 and 1e-100
    values = with_neighbours(switch * np.array([1.0, 0.5, 0.9999999, 2.0]))
    values = np.concatenate([values, with_neighbours(values)])
    assert format17(values) == reference(values)


def test_roundings_that_carry_into_the_next_decade():
    # 1e-70 lies below 10^-70, yet its 17 digits round up to 1e-70; the
    # kernel's N then falls outside [10^16, 10^17) and Python writes it
    carries = [1e-70, np.nextafter(1e17, 0), np.nextafter(1e16, 0),
               np.nextafter(1.0, 0), 0.99999999999999994]
    assert format(1e-70, ".17g") == "1e-70"
    assert format17(carries) == reference(carries)


def test_ties_take_the_python_branch():
    # exact ties at the 18th digit, which must round half to even
    ties = [1e15 + 0.25, 1e15 + 0.75, 1.0 + 2.0 ** -17, 3.0 + 2.0 ** -17]
    assert format17(ties) == reference(ties)
    assert format(ties[0], ".17g") == "1000000000000000.2"
    values = np.array(ties)[:, None]
    _, rows = textfmt._cells(values, np.ones(1, np.intp))
    assert (rows >= textfmt._PREFIX).all()  # none certified by the kernel


def test_every_value_through_the_python_branch(monkeypatch):
    # a tolerance of 1/2 certifies no nonzero value: the fallback alone
    # must write the same bytes
    values = np.random.default_rng(3).standard_normal(3000) * 10.0 ** (
        np.arange(3000) % 40 - 20)
    monkeypatch.setattr(textfmt, "TIE_TOLERANCE", 0.5)
    _, rows = textfmt._cells(values[:, None], np.ones(1, np.intp))
    assert (rows >= textfmt._PREFIX).all()
    assert format17(values) == reference(values)


def test_rows_columns_and_blank_cells_across_chunks():
    rng = np.random.default_rng(5)
    rows = textfmt.CHUNK_VALUES // 3 + 7  # three columns span two chunks
    values = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(
        -30, 30, (rows, 3))
    blank = rng.random((rows, 3)) < 0.2
    assert format17(values, blank) == reference(values, blank)
    assert format17(np.zeros((0, 3))) == b""


def test_pairs_match_per_line_formatting():
    nodes = np.linspace(-3.0, 3.0, 1001)
    rows = np.array([np.exp(-nodes ** 2) * s
                     for s in (1.0, -1e-40, 0.0, 7e250)])
    texts = [b"".join(pieces) for pieces in format_pairs(nodes, rows)]
    assert len(texts) == len(rows)
    for values, text in zip(rows, texts):
        assert text == reference(np.column_stack((nodes, values)))


def test_pairs_of_a_row_longer_than_a_chunk():
    nodes = np.linspace(0.0, 1.0, textfmt.CHUNK_VALUES * 2 + 3)
    rows = np.array([np.sin(nodes), np.cos(nodes)])
    texts = [b"".join(pieces) for pieces in list(format_pairs(nodes, rows))]
    assert texts == [reference(np.column_stack((nodes, v))) for v in rows]
    assert list(format_pairs(nodes, np.zeros((0, nodes.size)))) == []


def test_tables_are_built_on_first_use_only():
    textfmt._tables.cache_clear()
    assert textfmt._tables.cache_info().currsize == 0
    format17([1.5])
    assert textfmt._tables.cache_info().currsize == 1
