import io
from urllib.error import HTTPError, URLError

import pytest

from sscat import (
    BFileGapError,
    BFileParseError,
    FetchError,
    NoOverlapError,
    SequenceRecord,
    SequenceUnavailableError,
    bounded_sswcn_dp,
    catalan_number,
    compare_sequences,
    fetch_bfile,
    parse_bfile,
)
from sscat.oeis import FETCH_TIMEOUT_S


def test_parse_emit_round_trip():
    record = SequenceRecord("A000108", 0, (1, 1, 2, 5, 14))
    assert parse_bfile("0 1\n1 1\n2 2\n3 5\n4 14\n", "A000108") == record


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\n3 10\n4 -20\n  # trailing comment\n5 30\n"
    record = parse_bfile(text, "A000000")
    assert record.offset == 3
    assert record.values == (10, -20, 30)
    assert record.value_at(4) == -20
    with pytest.raises(IndexError):
        record.value_at(6)


def test_parse_errors():
    with pytest.raises(BFileGapError):
        parse_bfile("1 1\n3 2\n")
    with pytest.raises(BFileParseError) as excinfo:
        parse_bfile("1 1\n2 two\n")
    assert excinfo.value.line_number == 2
    with pytest.raises(BFileParseError):
        parse_bfile("1 1 1\n")
    with pytest.raises(BFileParseError):
        parse_bfile("# only comments\n")


def test_fetch_uses_bundled_fixture_offline(tmp_path):
    record = fetch_bfile("A000108", cache_dir=str(tmp_path), offline=True)
    assert record.values[:6] == (1, 1, 2, 5, 14, 42)


def test_fetch_prefers_cache(tmp_path):
    (tmp_path / "b000108.txt").write_text("0 7\n1 8\n")
    record = fetch_bfile("A000108", cache_dir=str(tmp_path), offline=True)
    assert record.values == (7, 8)


def test_fetch_offline_without_fixture(tmp_path):
    with pytest.raises(SequenceUnavailableError):
        fetch_bfile("A999999", cache_dir=str(tmp_path), offline=True)
    with pytest.raises(ValueError):
        fetch_bfile("108", cache_dir=str(tmp_path), offline=True)


def test_compare_sequences():
    a = SequenceRecord("x", 0, (1, 2, 3, 4))
    b = SequenceRecord("y", 2, (3, 4, 5))
    report = compare_sequences(a, b)
    assert report.match and report.overlap_start == 2 and report.overlap_length == 2
    c = SequenceRecord("z", 2, (3, 9))
    report = compare_sequences(a, c)
    assert not report.match and report.first_mismatch == 3
    with pytest.raises(NoOverlapError):
        compare_sequences(a, SequenceRecord("w", 10, (1,)))


def test_bounded_3_4_matches_fixture_prefix():
    reference = fetch_bfile("A015448", offline=True)
    computed = SequenceRecord(
        "computed", 0, tuple(bounded_sswcn_dp(3, 4, n) for n in range(13))
    )
    assert compare_sequences(computed, reference).match


def test_catalan_fixture_prefixes():
    c2 = fetch_bfile("A000108", offline=True)
    for n in range(8):
        assert catalan_number(2, n) == c2.value_at(n)
    c3 = fetch_bfile("A001246", offline=True)
    for n in range(6):
        assert catalan_number(2, n) ** 2 == c3.value_at(n)


class _Reply(io.BytesIO):
    status = 200


def _serve(monkeypatch, reply):
    """Route `fetch_bfile`'s network call to *reply* (bytes or an exception)."""
    urls = []

    def fake_urlopen(url, timeout):
        urls.append((url, timeout))
        if isinstance(reply, Exception):
            raise reply
        return _Reply(reply)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    return urls


def test_fetch_over_network_parses_and_caches(tmp_path, monkeypatch):
    urls = _serve(monkeypatch, b"# A999999\n0 3\n1 5\n")
    record = fetch_bfile("A999999", cache_dir=str(tmp_path))
    assert urls == [("https://oeis.org/A999999/b999999.txt", FETCH_TIMEOUT_S)]
    assert record.values == (3, 5)
    assert (tmp_path / "b999999.txt").read_text() == "# A999999\n0 3\n1 5\n"
    # the cached copy now answers without the network
    _serve(monkeypatch, URLError("unreachable"))
    assert fetch_bfile("A999999", cache_dir=str(tmp_path)) == record


def test_fetch_http_error_status(tmp_path, monkeypatch):
    url = "https://oeis.org/A999999/b999999.txt"
    _serve(monkeypatch, HTTPError(url, 404, "Not Found", {}, None))
    with pytest.raises(FetchError, match="HTTP 404"):
        fetch_bfile("A999999", cache_dir=str(tmp_path))
    assert not (tmp_path / "b999999.txt").exists()


def test_fetch_unreachable(tmp_path, monkeypatch):
    _serve(monkeypatch, URLError("name resolution failed"))
    with pytest.raises(SequenceUnavailableError):
        fetch_bfile("A999999", cache_dir=str(tmp_path))
