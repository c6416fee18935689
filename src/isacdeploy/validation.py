"""The number gate: `as_float` accepts a real number (not a bool, not a
string) that a float holds, `integer_at_least` a count, `real_in` a finite
number in range. Each raises a ValueError naming the argument, so a library
call and a config field fail alike; none rewrites a value a caller stores.
"""

import math
import numbers


def as_float(name: str, value) -> float:
    """`value` as a float if it is a real number (bools are not) that a float
    holds, NaN and infinities included; otherwise a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        magnitude = abs(int(value))
        digits = int(math.log10(magnitude)) + 1  # str() would refuse integers of over 4300 digits
        digits += (magnitude >= 10**digits) - (magnitude < 10 ** (digits - 1))
        raise ValueError(f"{name}: expected a number within the float range, got a {digits}-digit integer") from None


def integer_at_least(name: str, value, minimum: int) -> int:
    """`value` as an int if `as_float` takes it, it is integral (8 and 8.0 pass,
    2.5 and inf do not) and at least `minimum`; otherwise a ValueError naming `name`."""
    if not as_float(name, value).is_integer() or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def real_in(name: str, value, low: float = -math.inf, high: float = math.inf, *, above: bool = False) -> float:
    """`value` as a float if it passes `as_float`, is finite and lies in
    [low, high], or in (low, high] with `above`; otherwise a ValueError naming `name`."""
    number = as_float(name, value)
    if math.isfinite(number) and (number > low if above else number >= low) and number <= high:
        return number
    interval = f"{'(' if above or low == -math.inf else '['}{low:g}, {high:g}{')' if high == math.inf else ']'}"
    raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")
