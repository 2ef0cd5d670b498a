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
    # the prefilter's walks are charged before the first, and only the
    # powers of two compared are built
    ("scan-pow2 --k-max 3 --u-max 10000000 --n-max 2", 2),
    ("scan-pow2 --k-max 3 --u-max 5 --n-max 10000000", 2),
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
    # Each route's last input inside the limit is pinned at its estimator
    # in the unit tests; the first input outside it is refused here.
    # One path, but k + 1 tags of about 1 MB each, each made, hashed and
    # read as bytes: k = 1,094 is the last inside the limit
    ("sswcn 1000 1 --symbolic", 0),
    ("sswcn 1095 1 --symbolic", 2),
    # one path whose points, 12,001 tuples of 12,000 coordinates, would
    # fill more than the 1 GiB limit; 3,428 fit, 3,429 do not
    ("enumerate 12000 1", 2),
    ("enumerate 3429 1", 2),
    # the k-coordinate points are charged before the first is built
    ("enumerate 100000000 1", 2),
    ("bounded 100000000 4 2", 2),
    ("period 100000000 4 --mod 2", 2),
    ("bounded 100000 4 2", 0),
    # the Catalan number's division, just outside the limit (47,538 is in)
    ("count 3 47539", 2),
    # the numeric lattice walk, just outside the limit (n = 129 is in)
    ("sswcn 3 130", 2),
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
    # past the limit of the lattice walk, the transfer matrix at (4, 2000)
    # has far more states than the limit lets its walk find
    ("bounded 4 2000 400", 2),
    # a single exact count is charged by the squarings of its jump; n =
    # 46,331 is the last inside the limit
    ("bounded 3 30 40000", 0),
    ("bounded 3 30 46332", 2),
    # a triangle is charged for the one box of its last row; the edges of
    # the old work budget, (2, 201/202) and (4, 24/25), are now inside,
    # and the new ones are (2, 211) and (4, 27)
    ("triangle height 2 --rows 201", 0),
    ("triangle height 2 --rows 202", 0),
    ("triangle height 2 --rows 212", 2),
    ("triangle height 4 --rows 24", 0),
    ("triangle height 4 --rows 25", 0),
    ("triangle height 4 --rows 28", 2),
    # row 0 has one point, but each walk first sets up the k step kinds,
    # at most 1,333,333 of them
    ("triangle height 1333334 --rows 0", 2),
    ("triangle height 4194305 --rows 0", 2),
]
# A single residue is charged 2 S^2 products mod m per bit of n, each one
# small product plus bits(m)^2 // 64 term-bits, 2 * 46^2 * 1001 of them
# for n of 1,001 bits: an m of 313 bits is just inside the limit, and one
# bit more is just outside.  Weights that vanish above height 2 keep these
# walks low, so the recurrence has order 2, not 46, and the run inside
# ends at once.
CASES += [
    (f"bounded 3 30 {2**1000} --mod {2**312 + 1} --b 1,1,1,fill=0", 0),
    (f"bounded 3 30 {2**1000} --mod {2**313 + 1} --b 1,1,1,fill=0", 2),
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
        assert b"needs an estimated" in done.stderr, done.stderr
    if command.startswith("triangle") and code == 2:
        assert b"error: the height triangle" in done.stderr
    if command in ("count 20000 1", "count 100000 0"):
        assert done.stdout == b"1\n"
    if command.split()[:2] == ["bounded", "10"]:
        assert done.stdout == b"232553551737813227594400\n"  # sswcn 10 5
    if command.startswith("scan-pow2") and code == 0:
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
