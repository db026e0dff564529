"""floattext writes exactly the bytes repr gives every float64."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from barstress import floattext

EDGES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, 1e-323, 5e-323, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1e-4, 1e-05, 1e22, 1e23,
]


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = floattext.reprs(values)
    want = list(map(repr, values.ravel().tolist()))
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:5]
    assert len(got) == len(want)


def with_negatives(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


class TestReprs:
    def test_edge_set(self):
        assert_reprs(with_negatives(EDGES))
        assert floattext.reprs(np.array(EDGES[:6])) == [
            "0.0", "-0.0", "nan", "nan", "inf", "-inf"
        ]
        assert floattext.reprs(np.array([5e-324, 5e-323])) == ["5e-324", "5e-323"]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20201)
        assert_reprs(rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64))

    def test_small_subnormals(self):
        assert_reprs(np.arange(1, 2**16, dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_reprs(with_negatives(np.concatenate([
            tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf)
        ])))

    def test_powers_of_two(self):
        assert_reprs(with_negatives([math.ldexp(1.0, k) for k in range(-1074, 1024)]))

    @given(st.lists(st.floats(), min_size=1, max_size=50))
    def test_any_floats(self, values):
        assert_reprs(values)


def reference_rows(values, delimiter=",", blank=None):
    lines = []
    for i, row in enumerate(np.asarray(values, dtype=np.float64).tolist()):
        fields = [
            "" if blank is not None and blank[i][j] else repr(v) for j, v in enumerate(row)
        ]
        lines.append(delimiter.join(fields) + "\n")
    return "".join(lines).encode("utf-8")


class TestJoinRows:
    @pytest.mark.parametrize("delimiter", [",", ";", "%", "\t", "§", "€", "😀"])
    @pytest.mark.parametrize("cols", [1, 3, 31, 9000])
    def test_bytes_equal_joined_reprs(self, delimiter, cols):
        rng = np.random.default_rng(cols)
        values = rng.normal(scale=40.0, size=(max(2, 20_000 // cols), cols))
        values.ravel()[: len(EDGES)] = EDGES[: values.size]
        assert floattext.join_rows(values, delimiter) == reference_rows(values, delimiter)

    def test_blank_fields(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(300, 40))
        values[5, 7] = math.inf
        blank = rng.random(values.shape) < 0.3
        blank[5, 7] = True
        blank[9] = True
        want = reference_rows(values, ",", blank)
        assert floattext.join_rows(values, ",", blank=blank) == want

    def test_all_fields_blank(self):
        values = np.random.default_rng(5).normal(size=(50, 7))
        blank = np.ones(values.shape, dtype=bool)
        assert floattext.join_rows(values, ",", blank=blank) == b",,,,,,\n" * 50

    def test_no_field_blank(self):
        values = np.random.default_rng(6).normal(size=(300, 40))
        values[3, :6] = EDGES[:6]
        blank = np.zeros(values.shape, dtype=bool)
        want = reference_rows(values)
        assert floattext.join_rows(values, ",", blank=blank) == want
        assert floattext.join_rows(values, ",") == want

    def test_blank_run_across_a_block_boundary(self):
        cols = 32
        values = np.random.default_rng(7).normal(size=(3 * floattext._BLOCK // cols, cols))
        blank = np.zeros(values.shape, dtype=bool)
        # One run of blanks from 300 fields before the first block's end to
        # 500 after it, and a block that ends on a blank.
        blank.ravel()[floattext._BLOCK - 300 : floattext._BLOCK + 500] = True
        blank.ravel()[2 * floattext._BLOCK - 1] = True
        want = reference_rows(values, ",", blank)
        assert floattext.join_rows(values, ",", blank=blank) == want

    def test_nan_and_inf_under_a_blank(self):
        values = np.random.default_rng(8).normal(size=(40, 6))
        blank = np.zeros(values.shape, dtype=bool)
        values[2, :4] = [math.nan, math.inf, -math.inf, -0.0]
        blank[2, :4] = True
        # The same values in fields that are not blank, in the same block.
        values[5, :4] = [math.nan, math.inf, -math.inf, -0.0]
        values[6, 1] = math.nan
        blank[6, 0] = blank[6, 2] = True
        want = reference_rows(values, ",", blank)
        assert floattext.join_rows(values, ",", blank=blank) == want
        assert want.split(b"\n")[2].startswith(b",,,,")

    def test_empty_shapes(self):
        assert floattext.join_rows(np.zeros((0, 3))) == b""
        assert floattext.join_rows(np.zeros((2, 0))) == b"\n\n"
        assert floattext.reprs(np.zeros(0)) == []

    def test_rejects_a_delimiter_of_two_characters(self):
        with pytest.raises(ValueError, match="one character"):
            floattext.join_rows(np.zeros((1, 2)), ";;")
