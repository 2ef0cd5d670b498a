"""Every input ends in an answer or a typed refusal, quickly and in bounded
memory: one table of argv that once ran for many seconds or out of memory,
each run as the CLI in a child process under a 1 GiB address-space limit."""

import os
import re
import resource
import subprocess
import sys
import time

import pytest

from sscat import bounded_sequence, bounded_sswcn_dp, catalan_number, cli, max_path_height
from sscat.paths import lattice_diagonal

# The hits of `scan-pow2` for k <= 9; k = 10 to 14 have none up to u = 80.
POW2_HITS = [(2, 2), (4, 6), (5, 8), (5, 9), (6, 10), (6, 11), (6, 12)]
POW2_HITS += [(7, 12), (7, 13), (7, 14), (7, 15), (8, 16), (8, 17), (8, 18), (9, 20), (9, 21)]

CASES = [
    ("bounded 8 60 300", 0),
    ("scan-pow2 --k-max 10 --u-max 40", 0),
    # each (k, u) is dropped by its first counts before any transfer matrix
    ("scan-pow2 --k-max 14 --u-max 80", 0),
    # no k past 17 has a path of height <= 80
    ("scan-pow2 --k-max 1000000000 --u-max 80", 0),
    ("enumerate 6 10 --bound 45", 2),
    ("sswcn 3 3000", 2),
    ("sswcn 6 40", 2),
    ("sswcn 3 2000 --b 2,fill=3", 2),
    ("enumerate 6 6 --format json", 2),
    # one hook factor per row of the shorter side, not k factorials
    ("count 20000 1", 0),
    ("count 100000 0", 0),
    # the weight step makes one power of 256 per step, not a table of them
    ("sswcn 300 1 --symbolic", 0),
    # one path, but 1,001 tags of 1 MB each, whose printing decodes every slot
    ("sswcn 1000 1 --symbolic", 2),
    # one path whose points, 12,001 tuples of 12,000 coordinates, would
    # fill more than the 1 GiB limit
    ("enumerate 12000 1", 2),
    # single counts from x^(n // 2) modulo the proved recurrence
    ("bounded 3 30 16000", 0),
    ("bounded 3 30 5000000 --mod 1000003", 0),
    ("bounded 3 30 100000000 --mod 1000003", 0),
    # a short run mod a long m is charged no more than its d-term loop
    (f"bounded 3 30 2048 --mod {10**4000 + 1}", 0),
    # a binding bound leaves one path of the 2,674,440
    ("enumerate 2 14 --bound 1", 0),
    # no path of length 50 is higher than max_path_height(10, 5) = 125, so
    # the bound cannot bind: the count is sswcn 10 5's, by the lattice DP
    ("bounded 10 200 5", 0),
    ("bounded 10 125 5", 0),
    # past LATTICE_WORK_BUDGET, the transfer matrix at (4, 2000) has far
    # more states than STATE_WALK_BUDGET lets its walk find
    ("bounded 4 2000 400", 2),
    # a single exact count is charged by the squarings of its jump
    ("bounded 3 30 40000", 0),
    # a triangle is charged for the one box of its last row, just inside
    # TRIANGLE_WORK_BUDGET and just outside it
    ("triangle height 2 --rows 201", 0),
    ("triangle height 2 --rows 202", 2),
    ("triangle height 4 --rows 24", 0),
    ("triangle height 4 --rows 25", 2),
    # row 0 has one point, but each walk first lists the k step kinds
    ("triangle height 4194305 --rows 0", 2),
]
# A single residue is charged 2 S^2 (PRODUCT_BITS + bits(m)^2 // 64) per bit
# of n, 2 * 46^2 * (512 + 1806) for n of 14,000 bits mod an m of 340 bits:
# just inside the budget, and one bit more of m is just outside.  Weights
# that vanish above height 2 keep these walks low, so the recurrence has
# order 2, not 46, and the run inside ends at once.
CASES += [
    (f"bounded 3 30 {2**13999} --mod {2**339 + 1} --b 1,1,1,fill=0", 0),
    (f"bounded 3 30 {2**13999} --mod {2**340 + 1} --b 1,1,1,fill=0", 2),
]


def _case_id(command):
    """*command* with each number of 30 digits or more abbreviated."""

    def abbreviated(number):
        digits = number.group()
        return f"{digits[:6]}...{digits[-4:]}({len(digits)} digits)"

    return re.sub(r"\d{30,}", abbreviated, command)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command, code", CASES, ids=[_case_id(c) for c, _ in CASES])
def test_command_ends_in_an_answer_or_a_refusal(command, code):
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "sscat.cli", *command.split()],
        capture_output=True,
        env=env,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert time.monotonic() - start < 5
    assert done.returncode == code, done.stderr
    assert b"Traceback" not in done.stderr
    if code == 2:
        assert done.stdout == b""
    if command.startswith("triangle") and code == 2:
        assert b"TRIANGLE_WORK_BUDGET" in done.stderr
    if command.startswith("count"):
        assert done.stdout == b"1\n"
    if command.startswith("bounded 10"):
        assert done.stdout == b"232553551737813227594400\n"  # sswcn 10 5
    if command.startswith("scan-pow2"):
        lines = done.stdout.decode().splitlines()
        assert lines == [f"k={k} u={u}" for k, u in POW2_HITS]


def test_bounded_8_60_matches_the_height_bounded_lattice():
    # The bound binds from n = 4, where the largest height 16n passes 60.
    def keep(vector, kind, g, g2):
        return vector.items()

    counts = bounded_sequence(8, 60, 6)
    lattices = lattice_diagonal(8, 5, {None: 1}, keep, height_bound=60)
    for n in range(6):
        lattice = lattices[n].get(None, 0)
        assert bounded_sswcn_dp(8, 60, n) == counts[n] == lattice, n
        binds = max_path_height(8, n) > 60
        assert (lattice < catalan_number(8, n)) == binds, n
