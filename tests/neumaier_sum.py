"""pytest plugin: run the suite with Python 3.12's float ``sum()``.

Python 3.12 sums floats with Neumaier's compensated summation (gh-100425),
so a float sum there can differ in its last bits from 3.10 and 3.11. This
plugin swaps ``builtins.sum`` for an emulation of the 3.12 rule for the
length of the run, so that any interpreter checks that arithmetic:

    PYTHONPATH=src python -m pytest -q -p tests.neumaier_sum

Like CPython 3.12, it adds ints exactly until the first non-int; then, while
the total is a float, it adds floats with compensation and C-long ints
without; anything else falls back to ``+``. Only ``sum()`` is emulated.
"""

import builtins
import math

_builtin_sum = builtins.sum
_C_LONG = range(-2 ** 63, 2 ** 63)


def neumaier_sum(iterable, /, start=0):
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
        else:
            return total
    if type(total) is float:
        f, c = total, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
            elif isinstance(item, int) and item in _C_LONG:
                f += float(item)
            else:
                total = _settle(f, c) + item
                break
        else:
            return _settle(f, c)
    for item in items:
        total = total + item
    return total


def _settle(f, c):
    # An inf or NaN compensation would turn an overflowed sum into NaN.
    return f + c if c and math.isfinite(c) else f


def pytest_configure(config):
    builtins.sum = neumaier_sum


def pytest_unconfigure(config):
    builtins.sum = _builtin_sum
