"""The block CSV writer against the per-row ``%`` formatter it replaced.

``reference_chunks`` is that formatter, kept here as the reference: every
byte the writer produces must equal what ``%d``, ``%.17g`` and ``%s`` give
row by row.  Each case runs with blocks of every size on the vector path,
on the scalar path, and with the break-even the writer uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mftg.cli
from mftg import csvformat
from mftg.cli import _csv_chunks, _spans
from mftg.csvformat import csv_rows

_CONVERSIONS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}


def reference_chunks(header, blocks, short):
    """The per-row writer: one ``%`` format per row."""
    yield ",".join(header) + "\n"
    period, keep = short or (1, 0)
    written = 0
    for columns in blocks:
        present = [c for c in columns if c is not None]
        fields = ["" if c is None else _CONVERSIONS[c.dtype.kind] for c in columns]
        row_format = ",".join(fields) + "\n"
        short_format = ",".join(fields[:keep]) + "," * (len(fields) - keep) + "\n"
        short_values = sum(c is not None for c in columns[:keep])
        rows = list(zip(*(c.tolist() for c in present)))
        lines = [row_format % row for row in rows]
        if short:
            # The last of every `period` rows of the file is short.
            first = (period - 1 - written) % period
            lines[first::period] = [short_format % row[:short_values]
                                    for row in rows[first::period]]
        written += len(rows)
        yield "".join(lines)


@pytest.fixture(params=["vector", "scalar", "default"])
def path(request, monkeypatch):
    rows = {"vector": 1, "scalar": 10 ** 9, "default": csvformat.VECTOR_MIN_ROWS}
    monkeypatch.setattr(csvformat, "VECTOR_MIN_ROWS", rows[request.param])
    return request.param


def assert_same(blocks, short=None):
    header = [f"c{i}" for i in range(len(blocks[0]))]
    want = "".join(reference_chunks(header, blocks, short)).encode("utf-8")
    got = b"".join(_csv_chunks(header, blocks, short))
    if got != want:
        for line, (a, b) in enumerate(zip(want.split(b"\n"), got.split(b"\n"))):
            assert b == a, f"line {line}"
        assert got == want


def powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    below, above = np.nextafter(p, 0), np.nextafter(p, np.inf)
    return np.concatenate([p, below, above, np.nextafter(below, 0), np.nextafter(above, np.inf)])


class TestFloats:
    def test_random_bit_patterns(self, path):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64).view(np.float64)
        assert_same([[bits, -bits]])

    def test_powers_of_ten_and_neighbours(self, path):
        p = powers_of_ten()
        assert_same([[p, -p]])

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
    def test_format_switches(self, path, edge):
        rng = np.random.default_rng(11)
        values = list(edge * (1 + rng.uniform(-4e-16, 4e-16, 2000)))
        for direction in (0.0, np.inf):
            value = edge
            for _ in range(40):
                values.append(value)
                value = np.nextafter(value, direction)
        values = np.array(values)
        assert_same([[values, -values]])

    def test_rounding_ties(self, path):
        # Exact halves at the 17th digit round to even; the vector path hands
        # them to the scalar formatter.
        ties = np.array([2251799813685248.25, 2251799813685248.75, 4503599627370497.5,
                         9007199254740993.0 * 8, 1125899906842624.125, 0.5, 2.5,
                         72057594037927945.0, 144115188075855890.0])
        assert_same([[np.concatenate([ties, -ties, np.nextafter(ties, 0),
                                      np.nextafter(ties, np.inf)])]])

    def test_special_values(self, path):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 2.2250738585072009e-308,
                            1.7976931348623157e308, 1e-279, 1e290, 1e291, 0.1, 1 / 3, 100.0,
                            123456789012345678.0, 99999999999999999.0, 1e22, 1e23])
        assert_same([[np.tile(special, 7)]])

    def test_values_below_1e_279(self, path):
        # Subnormals and the smallest normals are prescaled by 2**600 and
        # formatted on the vector path: none is handed to the scalar path.
        rng = np.random.default_rng(23)
        low = 1e-279
        edges = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                          low, *np.nextafter(low, [0.0, 1.0]),
                          np.nextafter(np.nextafter(low, 0.0), 0.0)])
        p = np.array([float(f"1e{k}") for k in range(-323, -279)])
        powers = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)])
        subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64)
        small = np.exp(rng.uniform(np.log(2.2250738585072014e-308), np.log(low), 20_000))
        for values in (edges, powers, subnormal, small):
            assert_same([[values, -values]])
        below = np.concatenate([edges, powers, subnormal, small])
        below = below[below < low]
        assert not csvformat._float_digits(csvformat._tables(), below)[2].any()

    def test_meanpath_like_block(self, path):
        # A mean path and controls that decay through the subnormals to zero,
        # with the short terminal row of meanpath.csv.
        steps = np.arange(1001)
        x = 5.0 * 0.45 ** steps
        u = [x * c for c in (0.7, -1.3, 2.0 ** -30)]
        assert np.count_nonzero((x > 0) & (x < 2.2250738585072014e-308)) > 10
        assert_same([[steps, x, *u]], short=(1001, 2))

    def test_float32_column(self, path):
        values = np.random.default_rng(19).standard_normal(500).astype(np.float32)
        assert_same([[values, values * np.float32(1e-30)]])

    def test_decimal_values(self, path):
        rng = np.random.default_rng(3)
        values = rng.integers(-10 ** 9, 10 ** 9, 20_000) / 10.0 ** rng.integers(0, 9, 20_000)
        assert_same([[values, values / 1e6, values * 1e12]])


class TestColumns:
    def test_integers(self, path):
        ints = np.array([0, -1, 1, 9, 10, -10, 99, 100, 9999, 10000, -10001,
                         10 ** 15 - 1, 10 ** 15, -10 ** 15, 10 ** 18, 2 ** 63 - 1, -2 ** 63])
        rng = np.random.default_rng(5)
        mixed = rng.integers(-2 ** 63, 2 ** 63 - 1, 5000, dtype=np.int64, endpoint=True)
        unsigned = np.array([0, 1, 10 ** 19 - 1, 10 ** 19, 2 ** 64 - 1], dtype=np.uint64)
        assert_same([[np.tile(ints, 9)]])
        assert_same([[mixed, mixed // 1000, mixed % 100]])
        assert_same([[np.tile(unsigned, 30)]])

    def test_text_none_and_mixed(self, path):
        rows = 300
        text = np.array(["pass", "fail", "", "> 0", "1e-09", "agent é"] * (rows // 6))
        assert_same([[text, None, np.arange(rows), None, np.linspace(-1, 1, rows), text]])
        assert_same([[None, np.full(rows, "p"), np.arange(rows) - 150, None]])

    def test_short_rows(self, path):
        rng = np.random.default_rng(9)
        for rows, period, keep in [(300, 11, 3), (200, 4, 1), (400, 7, 7), (10, 11, 2)]:
            columns = [np.arange(rows), None, rng.standard_normal(rows),
                       np.full(rows, np.nan), rng.standard_normal(rows) * 1e-7, None, None]
            assert_same([columns], (period, keep))

    def test_short_rows_across_blocks(self, path):
        # Trajectory-like blocks: 11 rows per path, 372 paths per block, and
        # one block longer than CSV_BLOCK_WORDS allows, written in pieces
        # cut mid-period.
        rng = np.random.default_rng(13)
        blocks = []
        for paths in (372, 5, 800):
            rows = paths * 11
            blocks.append([np.repeat(np.arange(paths), 11), np.tile(np.arange(11), paths),
                           rng.standard_normal(rows), rng.standard_normal(rows),
                           np.where(np.arange(rows) % 11 == 10, np.inf, rng.standard_normal(rows))])
        assert_same(blocks, (11, 3))

    def test_sweep_tables(self, path):
        rng = np.random.default_rng(17)
        blocks = []
        for value in (2, 3, 4):
            rows = 150 * value
            blocks.append([np.full(rows, "p"), np.full(rows, value), np.arange(rows),
                           rng.standard_normal(rows), None, rng.standard_normal(rows) ** value])
        assert_same(blocks)
        assert_same([b[:4] for b in blocks], (10, 4))

    def test_split_mid_period(self, path, monkeypatch):
        # Blocks of 250 rows cut the 11-row periods anywhere, and the file
        # keeps the bytes of one block.  Last, a 71-row block between longer
        # ones: at the default break-even, scalar and vector blocks alternate.
        rng = np.random.default_rng(23)
        rows = 1200
        columns = [np.repeat(np.arange(rows // 12), 12)[:rows], None, rng.standard_normal(rows),
                   np.where(np.arange(rows) % 11 == 10, np.nan, rng.standard_normal(rows)),
                   np.arange(rows) - 600]
        whole = b"".join(_csv_chunks(["a", "b", "c", "d", "e"], [columns], (11, 2)))
        monkeypatch.setattr(mftg.cli, "CSV_BLOCK_WORDS", 250 * 6 * 5)
        split = list(_csv_chunks(["a", "b", "c", "d", "e"], [columns], (11, 2)))
        assert len(split) == 1 + 5
        assert b"".join(split) == whole
        assert_same([columns], (11, 2))
        three = [columns[0], columns[2], columns[3]]
        assert_same([three, [c[:71] for c in three], three], (11, 1))

    def test_offset_moves_the_short_rows(self, path):
        rng = np.random.default_rng(29)
        columns = [np.arange(400), rng.standard_normal(400), rng.standard_normal(400)]
        whole = csv_rows(columns, (7, 1))
        for cut in (1, 6, 7, 160, 200, 399):
            assert (csv_rows([c[:cut] for c in columns], (7, 1))
                    + csv_rows([c[cut:] for c in columns], (7, 1), cut)) == whole

    def test_blanked_values_are_never_formatted(self, path, monkeypatch):
        # Whatever a short row blanks is written as nothing and never reaches
        # '%.17g': the bytes equal those of a block with zeros there.
        rng = np.random.default_rng(31)
        rows = 440
        values = rng.standard_normal((3, rows)) * 10.0 ** rng.integers(-6, 3, (3, rows))
        blanked = np.arange(10, rows, 11)
        zeros, odd = values.copy(), values.copy()
        zeros[1:, blanked] = 0.0
        odd[1:, blanked] = np.resize([np.nan, np.inf, -np.inf, 5e-324, -2.5e-320, 1e300, -1e300],
                                     (2, blanked.size))
        seen = []
        percent_g = csvformat._percent_g
        monkeypatch.setattr(csvformat, "_percent_g",
                            lambda v: seen.extend(v.tolist()) or percent_g(v))
        for lo, hi in [(0, rows), (0, 200), (200, rows), (5, 171)]:
            want, got = (csv_rows([np.arange(lo, hi), *v[:, lo:hi]], (11, 2), lo)
                         for v in (zeros, odd))
            assert got == want
        assert not [v for v in seen if not 1e-300 < abs(v) < 1e300]

    def test_empty_block(self, path):
        assert_same([[np.arange(0), np.zeros(0)], [np.arange(3), np.ones(3)]])


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.integers(0, 10 ** 5), st.integers(1, 300), st.integers(1, 60))
def test_spans_are_full_blocks_with_a_vector_tail(units, unit_rows, columns):
    most = max(1, mftg.cli.CSV_BLOCK_WORDS // (6 * columns * unit_rows))
    spans = list(_spans(units, unit_rows, columns))
    edges = [0] + [hi for _, hi in spans]
    assert spans == list(zip(edges, edges[1:])) and edges[-1] == units
    assert len(spans) == -(-units // most)
    sizes = [hi - lo for lo, hi in spans]
    assert all(0 < size <= most for size in sizes)
    assert all(size == most for size in sizes[:-2])
    if len(sizes) > 1:
        # The last block is on the vector path whenever a full one is.
        assert sizes[-1] * unit_rows >= min(most * unit_rows, csvformat.VECTOR_MIN_ROWS)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                          st.integers(-2 ** 63, 2 ** 63 - 1),
                          st.floats(-1e20, 1e20)),
                min_size=1, max_size=300))
def test_hypothesis_rows(rows):
    floats, ints, bounded = (np.array(c) for c in zip(*rows))
    for minimum in (1, 10 ** 9):
        csvformat.VECTOR_MIN_ROWS, saved = minimum, csvformat.VECTOR_MIN_ROWS
        try:
            assert_same([[floats.astype(np.float64), ints.astype(np.int64),
                          bounded.astype(np.float64)]])
        finally:
            csvformat.VECTOR_MIN_ROWS = saved


def test_rejects_unwritable_columns(monkeypatch):
    for minimum in (1, 10 ** 9):        # the vector path, then the scalar path
        monkeypatch.setattr(csvformat, "VECTOR_MIN_ROWS", minimum)
        with pytest.raises(TypeError):
            csv_rows([np.zeros(3, dtype=bool)])
        with pytest.raises(ValueError):
            csv_rows([np.array(["a\0b"] * 200)])
        with pytest.raises(ValueError):
            csv_rows([np.arange(3), np.arange(3)], (2, 0))
        # Columns of unequal length, and a block with no column to count
        # its rows.
        for lengths in [(3, 5), (5, 3), (300, 500), (500, 300), (300, 300, 299)]:
            with pytest.raises(ValueError, match="differ in length"):
                csv_rows([np.arange(float(n)) for n in lengths])
        with pytest.raises(ValueError, match="needs a column"):
            csv_rows([None, None])
