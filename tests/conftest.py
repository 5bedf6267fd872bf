import os
import pathlib
import subprocess
import sys

import pytest

from layered_echo import read_medium

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH10 = REPO_ROOT / "bench10.taur"

BENCH10_TAUS = (0.432779, 0.0271153, 0.69101, 0.35937, 0.657201, 0.420491,
                0.454083, 0.911298, 0.249813, 0.145731, 0.0312502)
BENCH10_REFLECTIONS = (-0.821708, -0.950247, -0.634818, 0.497529, -0.66719,
                       0.338592, 0.447163, 0.567927, -0.256277, 0.630965,
                       -0.346928)

# The nominal cutoffs "5.38 s" and "3.69 s" are 3-significant-figure
# roundings: the reference term counts 19242 / 35059 are reproduced exactly
# (in exact rational arithmetic as well) at cutoff = total two-way time
# + 1 s for reflection and direct arrival + 1.5 s for transmission, both
# of which round to the nominal values.  At the literal rounded cutoffs
# the counts come out 19237 / 35052.
REFLECT_CUTOFF = 5.38014   # = 4.38014 + 1.0
TRANSMIT_CUTOFF = 3.69007  # = 2.19007 + 1.5
REFLECT_TERMS = 19242
TRANSMIT_TERMS = 35059


def launch_cli(*args, env_extra=None, launch=subprocess.run,
               entry=("-m", "layered_echo"), **kwargs):
    """Start ``python -S -m layered_echo ARGS``: the one way the tests run the CLI.

    ``-S`` drops site-packages, so every CLI test also checks that the
    package needs the standard library alone.  ``entry`` replaces
    ``-m layered_echo``, e.g. by ``-c CODE``.  ``launch`` is
    ``subprocess.run`` or ``subprocess.Popen``; ``kwargs`` go to it.
    """
    env = {**os.environ, **(env_extra or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    return launch([sys.executable, "-S", *entry, *args],
                  env=env, text=True, **kwargs)


@pytest.fixture(scope="session")
def bench10():
    return read_medium(str(BENCH10))
