"""Byte-exact stdout of every command in every format.

Each case pins the exit code and the SHA-256 of stdout, so any change to a
record's fields, their order, the text layout, the CSV headers or the
exact `num/den` and `inf` renderings shows up here.  The cases include an
informational p = 3 row, failing `lemma_sun1_printed` rows, the worst-k
records of the three aggregate checks from p = 3 on, Wolstenholme's and
Morley's congruences with their informational p = 3 rows, the inconsistent
family d, m = 15 discovery and a failing identity scan.
"""

import csv
import hashlib
import io

import pytest

from supercong import cli, lemma, series

CASES = {
    "verify": ["verify", "--checks", "lemma_sun1_printed,thm1,van_hamme", "--primes", "3..7",
               "--include-p3"],
    "lemma": ["lemma", "--m", "3,5", "--n", "2..6"],
    "wz": ["wz", "--grid", "6", "--telescope", "3..13", "--boundary", "3..15"],
    "discover": ["discover", "--family", "d", "--m", "1,15", "--primes", "5..60"],
    "table": ["table", "--m", "3,5", "--n", "2..4"],
    "worst_k": ["verify", "--checks", "lemma_sun3,ratio_expansion_mod2,ratio_expansion_mod4",
                "--primes", "3..61", "--include-p3"],
    "classical": ["verify", "--checks", "wolstenholme,morley", "--primes", "3..13", "--include-p3"],
}

EXPECTED = {
    ("verify", "text"): (1, "814eaa597f287cb54193555a9b413b7d1f8301d3cad17eb16d60e4075b20a225"),
    ("verify", "csv"): (1, "4f4615705dff28a79a4c7ffbdee55b3bbf325af886baae546f6e80afd3e2ccfb"),
    ("verify", "json"): (1, "09b92a64aa4eb4d5dba8450c9c160c6fa4d8b1b31550f61224fb61336896abcd"),
    ("lemma", "text"): (0, "43081e03c514c29ee045d85ddd472c371587e377a6c803bf7563d247d40921f0"),
    ("lemma", "csv"): (0, "c0ea2f91f4b7afdd3de367ed1c6d2fa66ad6f4b6355f807a440f305cc52d4dba"),
    ("lemma", "json"): (0, "8655d1afb83c104eaa3d4261e090b45bc4a808f48900ed07837fb79ea4c02323"),
    ("wz", "text"): (0, "384daaa8a8ec5ada974cbb8abf6da5d999d106a787e2852ce5a715884af1f307"),
    ("wz", "csv"): (0, "2aa1953c62facdc7b70f2bb0c20591b0dced774d98227624d229d6dce28fd3d6"),
    ("wz", "json"): (0, "99c633ebe5db1dce8416f0c2e7466ddf67527b6ea952fc57c38073324cacae41"),
    ("discover", "text"): (1, "7fc75cd8024a00834788f2174588d7a91ded837df5386f14cea9b8945eccf7f0"),
    ("discover", "csv"): (1, "0983800a45c84cbfe726e6332ed76bae68497fbce2d141164a5afd896cfef82a"),
    ("discover", "json"): (1, "12e6d9bef9bc810549246c8d70fc3bbec9b56651ebaf5b5cd3f49a87349b7934"),
    ("table", "text"): (0, "c9e32766ebe5d580cfb3e4e8aa821bdab915e0b6dd064a7020dcf3238b33c8f1"),
    ("table", "csv"): (0, "3b4f69719648ea7a0d9dc5ff6f320bab8f67c6dce14dfe06e8084f0119b5fdeb"),
    ("table", "json"): (0, "b6cb125c50e9ce0bea192383a809813cc23b4feea5f5a68fa6b4832f34bd9205"),
    ("worst_k", "text"): (0, "2a8e43d633625d136f695a89251c2ce0b79711b666395cb4f867e973fdcbe7e4"),
    ("worst_k", "csv"): (0, "16d282bde7d1913a4df03c93bcf7bd39e8558d3d5414ed9df29e9cfa23025344"),
    ("worst_k", "json"): (0, "6c0debfe216643c14cfc255bc8a3338f669dad3e83388c1e258e56f87ed4946c"),
    ("classical", "text"): (0, "f2b7d3c76e9e31e04221f9ce4f7cc2aff4103d732579e64c1c86c0077dc19b8c"),
    ("classical", "csv"): (0, "48ae95f0d6cf070fb9140d8be9d5bb396e0e1c9a0851f5798bb574fed4a0412a"),
    ("classical", "json"): (0, "0a36761e935624999cab9b3c3fe271ac98d849218a541346ad02aa4ca407a0bd"),
}

# `lemma` of CASES with check_lemma_f failing at n = 4.
FAILING_SCAN = {
    "text": "3bc36f6e606ca1f9db038767cfcbbe50a556f026af674c1724257341d56f6887",
    "csv": "b7735ecd494ed05dc9de802a65d579dbb23aa4e0e3ae0f0c37d48b351c0b7d77",
    "json": "5e916ac1e304b67a2827bf0b1e6bc57adc4c13978e0ff310293ed9d74b49a883",
}

# `wz` of CASES with the pair relation failing at (n, k) = (3, 2).
FAILING_WZ_SCAN = {
    "text": "4b6052a408f71d8d7f2a2636127c9092bfec48617d433f9d1525bdf4ebf0978b",
    "csv": "8babd1d76fe026e72c8546e647265139baff533ba96a14e99f086290cb442bde",
    "json": "5a9025cb1ba812bbd67c629116376266c9a73f42f6248298f81d242c52b64ebb",
}

# `wz` of CASES with the boundary form failing at p = 11.
FAILING_BOUNDARY_SCAN = {
    "text": "cda0e629dce8bdc2c05819764a116e8294767a3b50953b1000c427344d73c508",
    "csv": "ba35496f935f57c1a4fbd5e99642e3b7c30a825264d27f3f226d75398e3bfbdb",
    "json": "46ca6bf5311078a7a70957f6904497d8461e676b96e5ac94a17758746cc91ae2",
}


# `wz` at both caps' largest inputs: the boundary scan reads the F(h, h)
# values that the telescoped scan filled.
CAPS = ["wz", "--grid", "1", "--telescope", "3..1500", "--boundary", "3..3001"]
CAPS_BYTES = {
    "text": "30b6f00b02f4f5ed6601db9a42a67ac2904bbf205ff36c992284af705c746d64",
    "csv": "a88728a6555f9201f13810acb5bf8e5bd251c61e7d1c549cfe9fc697047976f2",
    "json": "a31d9d14cb87d28ab01d0ea75c635ff1eb32726966172d27bcdc4064976b1600",
}


def _run(capsys, argv):
    code = cli.run(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command,fmt", sorted(EXPECTED))
def test_stdout_bytes(capsys, command, fmt):
    assert _run(capsys, CASES[command] + ["--format", fmt]) == EXPECTED[command, fmt]


@pytest.mark.parametrize("fmt", sorted(CAPS_BYTES))
def test_stdout_bytes_at_the_wz_caps(capsys, fmt):
    assert _run(capsys, CAPS + ["--format", fmt]) == (0, CAPS_BYTES[fmt])


@pytest.mark.parametrize(
    "command,fmt",
    [key for key in sorted(EXPECTED) if key[0] in ("verify", "discover", "worst_k", "classical")],
)
def test_stdout_bytes_at_two_workers(capsys, monkeypatch, command, fmt):
    # fork even on a one-CPU host
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _run(capsys, CASES[command] + ["--format", fmt, "--jobs", "2"]) == EXPECTED[command, fmt]


def _relation_fails_at_3_2(monkeypatch, built):
    """Make the pair relation first fail at (n, k) = (3, 2): the F ratio of
    row 3 at k = 2 steps one off, so F(3, k) is wrong from k = 2 on.  Each
    row n streamed is appended to built."""

    def f_ratios(n, _real=series._wz_F_ratios):
        built.append(n)
        return ((a + ((n, k) == (3, 2)), b) for k, (a, b) in enumerate(_real(n), 1))

    monkeypatch.setattr(series, "_wz_F_ratios", f_ratios)


@pytest.mark.parametrize("fmt", sorted(FAILING_SCAN))
def test_failing_scan_bytes_and_no_evaluation_after_first_failure(capsys, monkeypatch, fmt):
    calls = []

    def fails_at_4(m, n, _real=lemma.table1_f):
        calls.append((m, n))
        return _real(m, n) + (n == 4)

    monkeypatch.setattr(lemma, "table1_f", fails_at_4)
    assert _run(capsys, CASES["lemma"] + ["--format", fmt]) == (1, FAILING_SCAN[fmt])
    # the rows still count n = 5, 6, but never evaluate them
    assert calls == [(m, n) for m in (3, 5) for n in (2, 3, 4)]


@pytest.mark.parametrize("fmt", sorted(FAILING_WZ_SCAN))
def test_failing_wz_scan_bytes_and_no_row_after_first_failure(capsys, monkeypatch, fmt):
    built = []
    _relation_fails_at_3_2(monkeypatch, built)
    assert _run(capsys, CASES["wz"] + ["--format", fmt]) == (1, FAILING_WZ_SCAN[fmt])
    # (3, 2), the first failure, was the last instance evaluated and read
    # row 3 alone; each row was streamed once and none past row 3
    assert built == [1, 2, 3]


@pytest.mark.parametrize("fmt", sorted(FAILING_BOUNDARY_SCAN))
def test_failing_boundary_scan_bytes_and_no_step_after_first_failure(capsys, monkeypatch, fmt):
    stepped = []

    def bad_step_from_9(_real=series._boundary_walk):
        # the closed side's step from p = 9 to 11 is twice too large, so
        # every closed value from p = 11 on is doubled
        for p, (num, den) in _real():
            stepped.append(p)
            yield p, (num << (p > 9), den)

    monkeypatch.setattr(series, "_boundary_walk", bad_step_from_9)
    assert _run(capsys, CASES["wz"] + ["--format", fmt]) == (1, FAILING_BOUNDARY_SCAN[fmt])
    # p = 11 is the first value off the bad step; the row still counts 13
    # and 15, but the walk never steps past 11
    assert stepped == [3, 5, 7, 9, 11]


@pytest.mark.parametrize("command", sorted(CASES))
def test_csv_rows_are_as_wide_as_their_header(capsys, monkeypatch, command):
    # A lemma scope ("m=3,n=2..6") and a failing pair relation ("n=3,k=2")
    # hold commas, so those fields must be quoted.
    _relation_fails_at_3_2(monkeypatch, [])
    cli.run(CASES[command] + ["--format", "csv"])
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert rows and all(len(row) == len(header) for row in rows)
    if command == "wz":
        assert rows[0][header.index("first_failure")] == "n=3,k=2"
