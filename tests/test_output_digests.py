"""SHA-256 digests of the bytes that `sscat sswcn --symbolic` and `sscat
enumerate` print, pinned before their packed-tag and suffix-list routes
replaced tuple tags and the step-by-step DFS.  The benchmark checks these
outputs by value only; these pins guard their exact bytes: term order,
spacing, and the JSON and CSV framing."""

import hashlib

import pytest

from sscat.cli import main

DIGESTS = {
    "sswcn 4 4 --symbolic": "62f1aaae972dacb104fc0dd0950165775be60bf50e7c88a7f6c53b68e0974b12",
    "sswcn 4 4 --symbolic --format json": (
        "1e9484aaab4122c1e6d29a0c1a7af5a385528050e03e7acb7c548a163ab24809"
    ),
    "sswcn 3 6 --symbolic": "bf5244432aff9c394ee97b892027b0a61f7df04c0576c7d53440e723c270aa33",
    "enumerate 4 4": "6868bb57503fc954f63c82431bc36596b9c54c6510970cd0ce2a068c7c8c28df",
    "enumerate 4 4 --format json": (
        "ce0eb6beba4e1768f4dc1de38c876645e910263f9bfb8c594e8330d962d85b07"
    ),
    "enumerate 4 4 --format csv": (
        "f7eb0d94e993eff3f8aef7f24212772dfbe64f6e33c09f6467c098656317ebc3"
    ),
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_its_pinned_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
