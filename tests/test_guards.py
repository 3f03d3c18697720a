"""Every integer argument is refused by the one guard, `core.check_int`.

Each entry point below takes one guarded integer.  Feeding it `True`,
`2.0`, lo - 1 or hi + 1 must raise the one message shape (exit 2 through
the CLI, where argparse already refuses the non-integers), and lo and hi
themselves must be accepted.
"""

from __future__ import annotations

import pytest

from zrel import (
    MAX_MODULUS,
    Composition,
    PitchClassSet,
    inherit,
    k4_pair,
    k_min_search,
    realization_table,
    scale_set,
)


def message(name: str, value, lo: int, hi: int | None) -> str:
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    return f"{name} must be an integer {bound}, got {value!r}"


def refused(lo: int, hi: int | None) -> list:
    return [True, 2.0, lo - 1] + ([] if hi is None else [hi + 1])


SET = PitchClassSet(12, (0, 1))

# (guarded name, entry point of one value, lo, hi or None, accepted values)
LIBRARY = {
    "PitchClassSet n": ("modulus", lambda n: PitchClassSet(n, (0,)), 3, MAX_MODULUS, None),
    "Composition n": ("modulus", lambda n: Composition(n, (n,)), 3, MAX_MODULUS, None),
    "realization_table k": ("cardinality", lambda k: realization_table(12, k), 1, 12, None),
    "realization_table workers": ("workers", lambda w: realization_table(12, 4, w), 1, None, None),
    "k_min_search kmax": ("kmax", lambda k: k_min_search(12, k), 1, 12, None),
    "scale_set d": ("scale factor", lambda d: scale_set(SET, d), 1, None, None),
    "k4_pair a": ("offset a", lambda a: k4_pair(24, a), 1, 5, None),
    # inherit(3, m, k) has no proper divisor m >= 3, so 6 stands in for lo.
    "inherit n": ("modulus", lambda n: inherit(n, 3, 3), 3, MAX_MODULUS, (6, MAX_MODULUS)),
}


@pytest.mark.parametrize("case", LIBRARY.values(), ids=LIBRARY.keys())
def test_library_guard(case):
    name, call, lo, hi, accepted = case
    for value in refused(lo, hi):
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == message(name, value, lo, hi)
    for value in accepted or (lo, lo if hi is None else hi):
        call(value)


# (flag name, argv of one value, lo, hi or None); each accepted value runs a small request.
CLI = {
    "table --kmin": ("kmin", lambda v: ("table", 12, "--kmin", v, "--kmax", 12), 2, 12),
    "table --kmax": ("kmax", lambda v: ("table", 12, "--kmax", v), 2, 12),
    "kmin --kmax": ("kmax", lambda v: ("kmin", 12, "--kmax", v), 1, 12),
    "zpairs k": ("k", lambda v: ("zpairs", 12, v), 2, 12),
    "scale k": ("k", lambda v: ("scale", 5, 2, v), 2, 5),
    "scale d": ("d", lambda v: ("scale", 5, v, 3), 1, None),
    "k4 a": ("offset a", lambda v: ("k4", 24, v), 1, 5),
    "--threads": ("workers", lambda v: ("k4", 12, 1, "--threads", v), 1, None),
}


@pytest.mark.parametrize("case", CLI.values(), ids=CLI.keys())
def test_cli_guard(run_cli, case):
    name, argv, lo, hi = case
    for value in refused(lo, hi):
        if type(value) is not int:
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv(value))
            assert exc.value.code == 2
        else:
            assert run_cli(*argv(value)) == (2, "", f"error: {message(name, value, lo, hi)}\n")
    for value in (lo, lo if hi is None else hi):
        code, out, err = run_cli(*argv(value))
        assert (code, err) == (0, "") and out
