"""Each ``children.CPU_PINS`` pin against its record, here and in a child per CPU set-up."""

import json

import pytest

import children
from children import CPU_PINS, CPU_SETUPS, run_all

# (pin, set-up) -> the ROADMAP item that mends the pin's move there; CHANGES.md gives each value
# read.  Strict, so a pair fails once its mend lands, until its entry goes
MOVES = {("scoring kernel", "no-avx512"): "ROADMAP item 12",
         ("scoring kernel", "x86-64-v2"): "ROADMAP item 12",
         ("scoring kernel", "glibc-no-fma"): "ROADMAP item 12",
         ("scenario evaluation", "x86-64-v2"): "ROADMAP item 11",
         ("scenario evaluation", "openblas-prescott"): "ROADMAP item 11"}


@pytest.fixture(scope="module")
def records() -> dict:
    return {name: record() if callable(record) else record
            for name, (_, record) in CPU_PINS.items()}


@pytest.fixture(scope="module")
def runs() -> dict:
    # each set-up's child, whose switches choose its numpy, OpenBLAS and glibc kernels
    return run_all({name: ([children.__file__], switches)
                    for name, switches in CPU_SETUPS.items()})


@pytest.mark.parametrize("pin", CPU_PINS)
def test_pin_holds_in_this_process(records, pin):
    assert CPU_PINS[pin][0]() == records[pin]


@pytest.mark.parametrize("pin,setup", [
    pytest.param(pin, setup, id=f"{pin}-{setup}", marks=[pytest.mark.xfail(
        reason=MOVES[pin, setup], strict=True)] if (pin, setup) in MOVES else [])
    for pin in CPU_PINS for setup in CPU_SETUPS])
def test_pin_is_the_same_under_every_cpu_setup(records, runs, pin, setup):
    run = runs[setup]
    if "You cannot disable CPU feature" in run.stderr:
        pytest.skip(f"numpy refuses the {setup} set-up on this machine")
    assert run.returncode == 0, run.stderr
    assert dict(map(json.loads, run.stdout.splitlines()))[pin] == records[pin]
