"""Golden digests: the full output bytes of the long CLI runs are fixed.

Each digest is the sha256 of everything one `f2rep` command writes to
stdout.  A refactor that changes a single byte of a CSV row, a family line,
a figure value or a one-line answer fails here, whatever the unit tests
still accept.
"""

from __future__ import annotations

import hashlib

import pytest

from f2rep.cli import main

GOLDEN = {
    ("figure", "--max", "4096"):
        "f8ddf3076e913945931506052c5547d6b874edf3c4fd06844db926de29e24fa8",
    ("family", "range", "--r-max", "10"):
        "e622c4e2a511f52f9552d44c7ede9524b4a0a8c32a840c0df97f83275c642583",
    ("scan", "--preset", "trinomials19"):
        "96a28118773a5bd0388c73864199926ae887b5f021c7d48fabb7a863db1b622b",
    ("scan", "--preset", "quadrinomials18"):
        "7dc05a7d9bd8cbb2b219c61ecfc7e933ed287c6a6279f68b9b34ba47d84017a1",
    ("gapcheck", "--degree-max", "10"):
        "54b59775c47701266ee1d567b34d66376e5f452687e439b680e96171d2e0ca03",
    ("scan", "--index-max", "4096", "--jobs", "2"):
        "93fdb16ae7f59dbbcdc1fe3748a321ba8e043010348905458b9f05c89cd8bb20",
    ("family", "range", "--r-max", "12", "--allow-large-r"):
        "99c4d00670694b6d8bd00f035fe10e2d10a958453bf05333243ae20942d0c26e",
    ("scan", "--preset", "order83"):
        "be87f0291de99c9bd0b3f6aa0022b4521814aca3f76fe14e6bfd9f0bbbcee1a4",
    ("scan", "--preset", "degree14"):
        "ce97bec6a36f3231ace469b74a46810e5ade1d8200bba9200ce59d725026e488",
    ("scan", "--shape", "quadrinomial", "--degree-max", "20", "--json"):
        "1b7348b1dc0396af9e124f75320fc4f5d2320be23f468e2ed87d5a2d2499db73",
    ("beta", "@643", "--period", "126"):
        "2b303f4fd09f9f4d3184462267f82670df64845225a56ea00495f11d946be503",
    ("cofactor", "x^10+x^8+x+1", "--format", "hex"):
        "66ce15f9409136e2d6bc726dfc432571a8c6c901824eac0c84aac4595152a250",
    ("parity", "--set", "{0,1,7,9}"):
        "bcc342678a40c104e769c85f2f2dfd0f6fecd5756709ca17f414fd609df6cfb5",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_digest(capsys, pool, argv):  # jobs 2 on a pool, however small the run
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN[argv]
