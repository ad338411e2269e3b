"""README's command line walkthrough runs as printed and prints what README quotes.

Run as a program, this module prints the walkthrough's ``sh`` blocks as one
shell script, so they can also run through the installed console script:

    python3 tests/test_readme.py > walkthrough.sh && bash -eu walkthrough.sh
"""

from __future__ import annotations

import math
import re
import shlex
from pathlib import Path

from romga import cli

README = Path(__file__).resolve().parents[1] / "README.md"
SECTION = "## Command line walkthrough"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
OPTIMIZE_LINE = re.compile(r"delta=(\S+) ne_t=(\d+) ne_x=(\d+) m=(\d+) cost=(\S+)")
# delta and cost may move in their last digits under another numpy build; this
# is the bound scripts/campaign.py --against puts on a history's floats
REL_TOL = 1e-9


def walkthrough_blocks(text: str) -> list[tuple[str, str | None]]:
    """Each ``sh`` block of the walkthrough section, with the ``text`` block after it, if any."""
    start = text.index(SECTION) + len(SECTION)
    end = text.find("\n## ", start)
    blocks: list[tuple[str, str | None]] = []
    for match in FENCE.finditer(text[start : None if end < 0 else end]):
        language, body = match.groups()
        if language == "sh":
            blocks.append((body, None))
        elif language == "text" and blocks and blocks[-1][1] is None:
            blocks[-1] = (blocks[-1][0], body)
    return blocks


def commands(script: str) -> list[list[str]]:
    """The argv of each command in a shell block, its ``\\`` continuations joined."""
    lines = script.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


def _genes(line: str) -> tuple:
    match = OPTIMIZE_LINE.fullmatch(line)
    assert match, line
    delta, ne_t, ne_x, m, cost = match.groups()
    return float(delta), int(ne_t), int(ne_x), int(m), float(cost)


def _assert_prints(printed: str, quoted: str) -> None:
    printed_lines, quoted_lines = printed.splitlines(), quoted.splitlines()
    assert len(printed_lines) == len(quoted_lines), (printed, quoted)
    for got, want in zip(printed_lines, quoted_lines):
        if OPTIMIZE_LINE.fullmatch(want):
            delta, *ints, cost = _genes(got)
            want_delta, *want_ints, want_cost = _genes(want)
            assert ints == want_ints, (got, want)
            assert math.isclose(delta, want_delta, rel_tol=REL_TOL), (got, want)
            assert math.isclose(cost, want_cost, rel_tol=REL_TOL), (got, want)
        else:
            assert got == want


def test_the_walkthrough_runs_as_printed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    blocks = walkthrough_blocks(README.read_text(encoding="utf-8"))
    quoted = "\n".join(q for _, q in blocks if q is not None).splitlines()
    optimized = [_genes(line) for line in quoted if OPTIMIZE_LINE.fullmatch(line)]
    assert len(optimized) == 1, "README quotes no single optimize line"
    delta, ne_t, ne_x, m, _ = optimized[0]
    predicted = 0
    for script, output in blocks:
        for argv in commands(script):
            if argv[0] == "mkdir":
                for name in argv[1:]:
                    (tmp_path / name).mkdir()
                continue
            assert argv[0] == "romga", argv
            if argv[1] == "predict":
                # predict at the genes the quoted optimize line recovered
                flags = dict(zip(argv[2::2], argv[3::2]))
                assert float(flags["--delta"]) == delta, argv
                assert (int(flags["--ne-t"]), int(flags["--ne-x"]), int(flags["--m"])) == (
                    ne_t, ne_x, m), argv
                predicted += 1
            assert cli.main(argv[1:]) == 0, argv
        printed = capsys.readouterr().out
        if output is not None:
            _assert_prints(printed, output)
    assert predicted == 1, "the walkthrough runs no predict"


if __name__ == "__main__":
    print("\n".join(script for script, _ in walkthrough_blocks(README.read_text(encoding="utf-8"))))
