"""Pins of :func:`~repro.service.validators.validate_clock_column`.

Clock validation runs pre-ack on every ingest chunk, in the single-process
service and in the shard router.  A chunk is rejected with
:class:`IngestRejectedError` when a clock is not a finite number, and with
its subclass :class:`ClockRegressionError` when the clocks run backwards,
inside the chunk or against the previous high-water mark.  The class is
the protocol's error code (``INGEST_REJECTED`` vs ``CLOCK_REGRESSION``), so
every case asserts the exact class.

Each case runs at lengths 1, 63, 64 and 1024, on both sides of the 64-clock
mark where the validator once switched to a vectorized pass, and with the
defect first, in the middle and last.  That pass let three defects through
at 64 clocks or more, and they are pinned here as rejected at every length:
a bool inside a numeric column (it read as 0 or 1), a nested list (a bare
``ValueError`` escaped instead of a rejection) and a regression among
integers in ``[2**63, 2**64)`` (the unsigned difference wrapped around).

The values column's check, :func:`validate_values_column`, is pinned next:
a weight the sketch cannot count in int64 is rejected before the ack.  The
end pins :func:`check_chunk`'s int clock bound for exponential histograms:
their store keeps clocks as float64 and takes no int beyond ``2**53``, while
the walk above, which knows no counter type, accepts ``2**70``.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import CounterType
from repro.service import ServiceConfig
from repro.service.errors import ClockRegressionError, IngestRejectedError
from repro.service.validators import check_chunk, validate_clock_column, validate_values_column

LENGTHS = (1, 63, 64, 1024)
#: A one-clock chunk cannot regress inside itself.
MULTI = LENGTHS[1:]
WHERE = ("first", "middle", "last")


def _index(length: int, where: str) -> int:
    return {"first": 0, "middle": length // 2, "last": length - 1}[where]


def _ascending(length: int) -> list[float]:
    return [float(clock) for clock in range(length)]


def _rejected(clocks: list, previous: float | None, expected: type[Exception]) -> None:
    with pytest.raises(IngestRejectedError) as excinfo:
        validate_clock_column(clocks, previous)
    assert excinfo.type is expected, excinfo.value


@pytest.mark.parametrize("length", LENGTHS)
class TestAccepted:
    def test_ascending_floats(self, length):
        validate_clock_column(_ascending(length), None)

    def test_ascending_ints(self, length):
        validate_clock_column(list(range(length)), None)

    def test_equal_clocks(self, length):
        validate_clock_column([5.0] * length, 5.0)

    def test_mixed_int_and_float(self, length):
        clocks = [index if index % 2 else float(index) for index in range(length)]
        validate_clock_column(clocks, None)

    def test_big_ints(self, length):
        validate_clock_column([2**70 + index for index in range(length)], 2**70)

    def test_first_clock_equal_to_previous(self, length):
        clocks = _ascending(length)
        validate_clock_column(clocks, clocks[0])

    def test_empty_previous_accepts_negative_clocks(self, length):
        validate_clock_column([-1e300 + index for index in range(length)], None)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("where", WHERE)
class TestNotANumber:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite(self, length, where, bad):
        clocks = _ascending(length)
        clocks[_index(length, where)] = bad
        _rejected(clocks, None, IngestRejectedError)

    @pytest.mark.parametrize("bad", ["7", None, [1.0], object()], ids=["str", "none", "list", "obj"])
    def test_non_numeric(self, length, where, bad):
        clocks = _ascending(length)
        clocks[_index(length, where)] = bad
        _rejected(clocks, None, IngestRejectedError)

    def test_bool_column(self, length, where):
        clocks: list = [True] * length
        clocks[_index(length, where)] = False if where == "first" else True
        _rejected(clocks, None, IngestRejectedError)

    def test_bool_in_a_numeric_column(self, length, where):
        # JSON ``true`` is not a clock, at any chunk length: equal to the
        # clocks around it, it must not pass as the integer 1.
        clocks: list = [1] * length
        clocks[_index(length, where)] = True
        _rejected(clocks, None, IngestRejectedError)
        clocks = [1.0] * length
        clocks[_index(length, where)] = True
        _rejected(clocks, None, IngestRejectedError)


@pytest.mark.parametrize("length", LENGTHS)
class TestRegressionAgainstPrevious:
    def test_floats(self, length):
        clocks = _ascending(length)
        _rejected(clocks, clocks[0] + 0.5, ClockRegressionError)

    def test_ints_against_a_float_mark(self, length):
        _rejected(list(range(length)), 0.25, ClockRegressionError)

    def test_big_ints(self, length):
        _rejected([2**70 + index for index in range(length)], 2**70 + 1, ClockRegressionError)

    def test_a_non_number_after_a_regression_is_still_rejected(self, length):
        # The walk reports the first defect it meets, in column order.
        clocks: list = _ascending(length)
        previous = clocks[0] + 0.5
        clocks[-1] = "late"
        _rejected(clocks, previous, ClockRegressionError if length > 1 else IngestRejectedError)


@pytest.mark.parametrize("length", MULTI)
class TestRegressionInsideTheChunk:
    @pytest.mark.parametrize("where", ("middle", "last"))
    def test_floats(self, length, where):
        clocks = _ascending(length)
        index = _index(length, where)
        clocks[index] = clocks[index - 1] - 0.5
        _rejected(clocks, None, ClockRegressionError)

    def test_big_ints(self, length):
        clocks = [2**70 + index for index in range(length)]
        clocks[-1] = clocks[-2] - 1
        _rejected(clocks, None, ClockRegressionError)

    def test_unsigned_64_bit_range(self, length):
        # Clocks in [2**63, 2**64) differ by one: the regression is exact
        # integer arithmetic, with no wrap-around.
        clocks = [2**63 + index for index in range(length)]
        clocks[-1] = clocks[-2] - 1
        _rejected(clocks, None, ClockRegressionError)


class TestValuesColumn:
    def test_accepts_non_negative_int64_weights(self):
        validate_values_column([0, 1, 2**63 - 1])

    @pytest.mark.parametrize(
        "bad",
        [-1, 2**63, 2**64, 1.0, True, "1"],
        ids=["negative", "int64-overflow", "uint64-overflow", "float", "bool", "str"],
    )
    @pytest.mark.parametrize("where", WHERE)
    def test_rejects(self, bad, where):
        values: list = [1] * 40
        values[_index(40, where)] = bad
        with pytest.raises(IngestRejectedError) as excinfo:
            validate_values_column(values)
        assert excinfo.type is IngestRejectedError


EH = ServiceConfig(mode="flat")
#: Past ``2**54`` float64 holds only even ints, so these floats step by 4.
BIG = 2**54


def _beyond_bound(length: int, where: str, sign: int) -> list:
    """Float clocks beyond ``2**53`` in magnitude, in order, with one int
    clock beyond the bound at ``where``."""
    index = _index(length, where)
    if sign < 0:
        index = length - 1 - index
    clocks: list = [float(BIG + 4 * position) for position in range(length)]
    clocks[index] = BIG + 4 * index + 1
    return clocks if sign > 0 else [-clock for clock in reversed(clocks)]


def _check(clocks: list, config: ServiceConfig = EH) -> None:
    check_chunk(["k"] * len(clocks), clocks, None, 0, config, None)


@pytest.mark.parametrize("length", LENGTHS)
class TestExponentialHistogramClockBound:
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize("where", WHERE)
    def test_int_clock_beyond_2_53_rejected(self, length, where, sign):
        clocks = _beyond_bound(length, where, sign)
        bad = clocks[_index(length, where)]
        assert type(bad) is int and abs(bad) > 2**53
        with pytest.raises(IngestRejectedError, match="2\\*\\*53") as excinfo:
            _check(clocks)
        assert excinfo.type is IngestRejectedError
        assert repr(bad) in str(excinfo.value)

    def test_the_bound_itself_accepted(self, length):
        _check([-(2**53)] * (length // 2) + [2**53] * (length - length // 2))

    def test_floats_beyond_2_53_accepted(self, length):
        _check([float(-BIG)] + [float(BIG + 4 * index) for index in range(length - 1)])

    @pytest.mark.parametrize("counter", [CounterType.DETERMINISTIC_WAVE, CounterType.RANDOMIZED_WAVE])
    def test_wave_counters_take_big_ints(self, length, counter):
        config = ServiceConfig(mode="flat", counter_type=counter, max_arrivals=1000)
        _check([2**70 + index for index in range(length)], config)
