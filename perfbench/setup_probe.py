"""Set-up of a fresh process for one config; prints when it ended.

Usage: python3 perfbench/setup_probe.py <config>

Set-up is everything before the first RK4 step: starting the interpreter,
importing the package, loading and validating the config, computing the
rates, and building the operators and the superoperator. The probe prints
``time.monotonic()`` at the end of set-up; the launching process subtracts
the moment it launched the probe (CLOCK_MONOTONIC is system-wide on Linux).
"""

import sys
import time

from vaporspin.config import load_config
from vaporspin.dynamics import build_superops
from vaporspin.pipeline import build_simulation

if __name__ == "__main__":
    cfg = load_config(sys.argv[1])
    ops, rates, params = build_simulation(cfg)
    build_superops(params, ops)
    print(repr(time.monotonic()))
