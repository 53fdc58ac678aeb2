"""Each (pin, set-up) pair of ``children``: a fresh child's value against this process's."""

import json

import pytest

import children
from children import CPU_PINS, CPU_SETUPS, run_all


@pytest.fixture(scope="module")
def runs() -> tuple[dict, dict]:
    # each set-up's child, whose switches choose its numpy, OpenBLAS and glibc kernels
    printed = run_all({name: ([children.__file__], switches)
                       for name, switches in CPU_SETUPS.items()})
    return printed, {name: pin() for name, pin in CPU_PINS.items()}


@pytest.mark.parametrize("setup", CPU_SETUPS)
@pytest.mark.parametrize("pin", CPU_PINS)
def test_pin_is_the_same_under_every_cpu_setup(runs, pin, setup):
    printed, here = runs
    run = printed[setup]
    if "You cannot disable CPU feature" in run.stderr:
        pytest.skip(f"numpy refuses the {setup} set-up on this machine")
    assert run.returncode == 0, run.stderr
    assert dict(map(json.loads, run.stdout.splitlines()))[pin] == here[pin]
