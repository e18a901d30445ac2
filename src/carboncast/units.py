"""Unit conventions and conversions.

All internal energy math is carried out in joules, watts and seconds.
Megawatt-hours and days exist only at report boundaries, so every
conversion lives here and nowhere else.
"""

SECONDS_PER_DAY = 86_400.0
DAYS_PER_YEAR = 365.25
SECONDS_PER_YEAR = DAYS_PER_YEAR * SECONDS_PER_DAY

JOULES_PER_MWH = 3.6e9

ZETTA = 1e21
TERA = 1e12


def joules_to_mwh(joules: float) -> float:
    return joules / JOULES_PER_MWH


def watt_seconds_to_mwh(watts: float, seconds: float) -> float:
    return joules_to_mwh(watts * seconds)


def seconds_to_days(seconds: float) -> float:
    return seconds / SECONDS_PER_DAY


def days_to_seconds(days: float) -> float:
    return days * SECONDS_PER_DAY


def years_to_seconds(years: float) -> float:
    return years * SECONDS_PER_YEAR
