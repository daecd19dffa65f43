"""Golden transcripts of the command-line interface.

Each case runs ``main(argv)`` in-process three times: in text mode,
with ``--json`` and with ``--strict``.  A case is pinned by its three exit
codes and a SHA-256 prefix of the three transcripts: stdout, stderr without
its timing line, and the JSON envelope without ``timing_seconds``.  Input
files are written to a temporary working directory and named relatively, so
the ``command`` echoed in the envelope does not depend on where it lives.

A refactor of ``cli.py`` keeps every pin; a pin changes only with a
deliberate change of what the CLI prints or returns.
"""

from __future__ import annotations

import hashlib
import json

import jsonschema
import pytest

from semiring_lab.cli import REPORT_SCHEMA, main

_FILES = {
    "ideal.txt": "2*T1*T2 - 1\n6*T1*T2^2 - 3*T2 - 1\n",
    "squares.txt": "T1^2\nT2^2\n",
    "cyclic.txt": "T1^3 - 2*T1*T2\nT1^2*T2 - 2*T2^2 + T1\n",
    "gens.txt": (
        "T1*T2\n2*T1*T2^2 - T2\n6*T1*T2^3 - 3*T2^2 - T2\n"
        "24*T1*T2^4 - 12*T2^3 - 4*T2^2 - T2\n"
    ),
    "bad.txt": "# comment\n\nT1 +* 2\n",
    "empty.txt": "# nothing\n",
    "absorbing.txt": "T1 + 1 = T1\n",
    "idempotent.txt": "1 + 1 = 1\n",
    "unit.txt": "T1*T2 = 1\n",
    "trivial.txt": "1 = 1\n",
    "zero.txt": "T1 = 0\n",
    "badrel.txt": "T1 + 1\n",
}

# argparse words these errors itself, and its wording differs across Python
# versions, so only their exit codes and stdout are pinned
_ARGPARSE_ERRORS = {
    "unknown-subcommand",
    "no-subcommand",
    "unknown-flag",
    "bad-int-flag",
    "poly-unread-budget-flag",
}

# (name, argv, exit codes in text / --json / --strict mode, digest prefix)
_CASES = [
    # poly
    ("poly-mul", ["poly", "mul", "T1+T2", "T1+T2"], 0, 0, 0, "df2c6678593c1705"),
    ("poly-add", ["poly", "add", "T1^2", "2*T1 - 1"], 0, 0, 0, "b85a7af0c2f2e5fa"),
    ("poly-sub-nat", ["poly", "sub", "2", "1", "--domain", "nat"], 0, 0, 0, "002a84533eda4e8b"),
    ("poly-sub-nat-negative", ["poly", "sub", "1", "2", "--domain", "nat"], 2, 2, 2, "db64c0e10014308a"),
    ("poly-mul-rat", ["poly", "mul", "1/2*T1", "T2", "--domain", "rat"], 0, 0, 0, "31b712c9b33fce34"),
    ("poly-mul-int-fraction", ["poly", "mul", "1/2*T1", "T2"], 2, 2, 2, "0eb32f58788da484"),
    ("poly-add-nvars-0", ["poly", "add", "1", "2", "--nvars", "0"], 0, 0, 0, "ea73bd2c59a9fd7e"),
    ("poly-pow", ["poly", "pow", "T1+1", "2"], 0, 0, 0, "d70240bb7d5566d6"),
    ("poly-pow-terms-limit", ["poly", "pow", "T1+T2+T3+T4+1", "21", "--nvars", "4"], 2, 2, 2, "89f8b61f03a4e047"),
    ("poly-pow-bits-limit", ["poly", "pow", "3", "10000"], 2, 2, 2, "ba4c41f841e10da8"),
    ("poly-pow-negative", ["poly", "pow", "T1", "-1"], 2, 2, 2, "9f0117c163ebd374"),
    ("poly-pow-bad-exponent", ["poly", "pow", "T1", "x"], 2, 2, 2, "66cfb090033aaf72"),
    ("poly-eval", ["poly", "eval", "2*T1*T2 - 1", "1/2,1/3"], 0, 0, 0, "21f6d8cdabb1290f"),
    ("poly-eval-zero-denominator", ["poly", "eval", "T1", "1/0,2"], 2, 2, 2, "be7e0c59a92cf964"),
    ("poly-eval-wrong-arity", ["poly", "eval", "T1", "2"], 2, 2, 2, "99ca561841b9d017"),
    ("poly-parse-error", ["poly", "mul", "T1+", "T2"], 2, 2, 2, "fcd2d8841eee318d"),
    ("poly-unread-budget-flag", ["poly", "mul", "1", "1", "--k", "9"], 2, 2, 2, "0faf13d2b02ae954"),
    ("unknown-flag", ["poly", "mul", "1", "1", "--frobnicate"], 2, 2, 2, "0faf13d2b02ae954"),
    ("bad-int-flag", ["poly", "mul", "1", "1", "--nvars", "two"], 2, 2, 2, "0faf13d2b02ae954"),
    # groebner
    ("basis", ["groebner", "basis", "--ideal", "ideal.txt"], 0, 0, 0, "38d547d3661ec5f9"),
    ("basis-lex", ["groebner", "basis", "--ideal", "cyclic.txt", "--order", "lex"], 0, 0, 0, "e5d3e894f609caff"),
    ("basis-nonpositive-deg", ["groebner", "basis", "--ideal", "ideal.txt", "--deg", "0"], 2, 2, 2, "595e478f629ef7b7"),
    ("basis-partial", ["groebner", "basis", "--ideal", "gens.txt", "--steps", "2"], 0, 0, 0, "e132346ae10f41a4"),
    ("member", ["groebner", "member", "--ideal", "ideal.txt", "--poly", "1"], 0, 0, 0, "a9a70873686ee010"),
    ("member-negative", ["groebner", "member", "--ideal", "squares.txt", "--poly", "T1"], 0, 0, 0, "c774b786fdd2a074"),
    ("member-unknown", ["groebner", "member", "--ideal", "gens.txt", "--poly", "1", "--steps", "2"], 0, 0, 1, "56059b2ab9375b61"),
    ("member-missing-file", ["groebner", "member", "--ideal", "missing.txt", "--poly", "1"], 2, 2, 2, "71c26347436618db"),
    ("member-file-parse-error", ["groebner", "member", "--ideal", "bad.txt", "--poly", "1"], 2, 2, 2, "6664f0458c44f149"),
    ("member-empty-file", ["groebner", "member", "--ideal", "empty.txt", "--poly", "1"], 2, 2, 2, "853c218c43aa7e13"),
    ("relations", ["groebner", "relations", "--gens", "gens.txt"], 0, 0, 0, "6eef21557081ce06"),
    ("relations-partial", ["groebner", "relations", "--gens", "gens.txt", "--steps", "1"], 0, 0, 0, "784618486aa5b08a"),
    ("submember", ["groebner", "submember", "--gens", "gens.txt", "--poly", "T1*T2"], 0, 0, 0, "80219d3ba061d3c5"),
    ("submember-negative", ["groebner", "submember", "--gens", "gens.txt", "--poly", "T2"], 0, 0, 0, "c9ccda895a6fb685"),
    ("submember-unknown", ["groebner", "submember", "--gens", "gens.txt", "--poly", "T1", "--steps", "2"], 0, 0, 1, "1765405d35a63649"),
    # presentation
    ("equal-trace", ["presentation", "equal", "--relations", "absorbing.txt", "T1 + 2", "T1"], 0, 0, 0, "87edd1febe4393d2"),
    ("equal-free-refuted", ["presentation", "equal", "T1", "T1 + 1"], 0, 0, 0, "1636e6db42a0527f"),
    ("equal-evaluation-separator", ["presentation", "equal", "--relations", "unit.txt", "--nvars", "2", "T1", "T2", "--steps", "5"], 0, 0, 0, "a741e8b6705385e0"),
    ("equal-unknown", ["presentation", "equal", "--relations", "absorbing.txt", "T1", "T1 + 2", "--steps", "1", "--deg", "2", "--coeff", "2"], 0, 0, 1, "ae60b8d36929e0ba"),
    ("equal-outside-box", ["presentation", "equal", "--relations", "absorbing.txt", "T1", "T1^3", "--deg", "2"], 2, 2, 2, "85a27fc786e8b4cd"),
    ("equal-negative-steps", ["presentation", "equal", "--relations", "absorbing.txt", "T1", "T1 + 2", "--steps", "-5"], 2, 2, 2, "b71579580e743ce4"),
    ("equal-shift-list-limit", ["presentation", "equal", "--relations", "zero.txt", "--nvars", "8", "--deg", "18", "T1", "T2"], 2, 2, 2, "fa42db2d4c7d64e6"),
    ("equal-identical-words", ["presentation", "equal", "--nvars", "1", "T1", "T1"], 0, 0, 0, "afb6ee0a5ead4995"),
    ("equal-relations-parse-error", ["presentation", "equal", "--relations", "badrel.txt", "T1", "T1"], 2, 2, 2, "ae3c1e1341dd3b53"),
    ("idempotent-yes", ["presentation", "idempotent", "--relations", "idempotent.txt"], 0, 0, 0, "f2f1a787dca31522"),
    ("idempotent-no", ["presentation", "idempotent", "--nvars", "1"], 0, 0, 0, "e20cd3276bd1a3c2"),
    ("cancellative-witness", ["presentation", "cancellative", "--relations", "absorbing.txt"], 0, 0, 0, "82ad343ef3d8c164"),
    ("cancellative-free", ["presentation", "cancellative"], 0, 0, 0, "bb557f3ff45ce32c"),
    ("cancellative-unknown", ["presentation", "cancellative", "--relations", "unit.txt", "--nvars", "2", "--steps", "5"], 0, 0, 1, "1d97d7728a70e91c"),
    ("find-l", ["presentation", "find-l", "--relations", "absorbing.txt"], 0, 0, 0, "4a8e3b3973d0ef5b"),
    ("find-l-free", ["presentation", "find-l", "--nvars", "1"], 0, 0, 0, "0cb0103400e3a3b2"),
    ("find-l-candidate-limit", ["presentation", "find-l", "--relations", "absorbing.txt", "--nvars", "3"], 2, 2, 2, "6bd90f1f234876bd"),
    ("preorder-yes", ["presentation", "preorder", "--a", "1", "--b", "T1 + 2"], 0, 0, 0, "5b2af4f1a23deb82"),
    ("preorder-no", ["presentation", "preorder", "--a", "T1 + 1", "--b", "T1"], 0, 0, 0, "486745cec4e5d0bf"),
    ("preorder-unknown", ["presentation", "preorder", "--relations", "unit.txt", "--nvars", "2", "--a", "T1", "--b", "T2", "--steps", "5"], 0, 0, 1, "cd40d484e005384e"),
    # abhyankar
    ("verify", ["abhyankar", "verify", "--k", "6", "--deg", "8"], 0, 0, 0, "5aba0261299603c6"),
    ("verify-bases", ["abhyankar", "verify", "--k", "5", "--bases", "T1*T2;T1^2*T2"], 0, 0, 0, "d973c3649a44ad17"),
    ("verify-k10", ["abhyankar", "verify", "--k", "10"], 0, 0, 1, "e5af27eab01971dc"),
    ("verify-low-degree", ["abhyankar", "verify", "--deg", "4"], 0, 0, 1, "ec40a2e657e1bb23"),
    ("verify-k1", ["abhyankar", "verify", "--k", "1"], 2, 2, 2, "9abdb80150477efb"),
    ("verify-k-limit", ["abhyankar", "verify", "--k", "101"], 2, 2, 2, "f941828f5034bfa5"),
    ("verify-evidence-limit", ["abhyankar", "verify", "--evidence", "1001"], 2, 2, 2, "ae23b3d2ea7aff53"),
    ("verify-k2", ["abhyankar", "verify", "--k", "2"], 0, 0, 1, "70385c3ec4b0f56f"),
    ("nonext", ["abhyankar", "nonext", "--nmax", "10"], 0, 0, 0, "662068f7c3365c28"),
    ("nonext-small", ["abhyankar", "nonext", "--nmax", "1"], 2, 2, 2, "b1922e448470673f"),
    ("generator", ["abhyankar", "generator", "--n", "4"], 0, 0, 0, "34fcbf16c5ead6c3"),
    ("generator-small", ["abhyankar", "generator", "--n", "1"], 2, 2, 2, "298e4fe7a6a37b5b"),
    ("image", ["abhyankar", "image", "--rep", "X2"], 0, 0, 0, "64d756e5c0753887"),
    ("image-kernel", ["abhyankar", "image", "--rep", "2*X2 - 1"], 0, 0, 0, "36f96abd214e04a9"),
    ("image-unknown", ["abhyankar", "image", "--rep", "X2", "--deg", "4"], 0, 0, 1, "a7de48e6b758a1a7"),
    ("image-parse-error", ["abhyankar", "image", "--rep", "X2*T1"], 2, 2, 2, "b411ca48c9b25894"),
    ("image-k1", ["abhyankar", "image", "--rep", "X2", "--k", "1"], 2, 2, 2, "9abdb80150477efb"),
    # cone
    ("enumerate", ["cone", "enumerate", "--assign", "2,3", "--box", "2"], 0, 0, 0, "ad7ee795a915497a"),
    ("enumerate-presentation", ["cone", "enumerate", "--relations", "absorbing.txt", "--box", "2"], 0, 0, 0, "33ab0e365b36978e"),
    ("enumerate-partial", ["cone", "enumerate", "--relations", "unit.txt", "--nvars", "2", "--box", "1", "--steps", "2"], 0, 0, 0, "d9b79129a0198460"),
    ("enumerate-no-target", ["cone", "enumerate"], 2, 2, 2, "a847f645f2c79551"),
    ("enumerate-both-targets", ["cone", "enumerate", "--assign", "2,3", "--relations", "unit.txt", "--nvars", "2", "--box", "1"], 2, 2, 2, "139b7a5f6a6e1b10"),
    ("enumerate-bad-assignment", ["cone", "enumerate", "--assign", "a,b"], 2, 2, 2, "7455bf50e46659a2"),
    ("enumerate-negative-box", ["cone", "enumerate", "--assign", "2", "--box", "-1"], 2, 2, 2, "3ba01911b5404f25"),
    ("interior", ["cone", "interior", "--assign", "2,3", "--box", "3"], 0, 0, 0, "a87ea6056ef61506"),
    ("interior-not-found", ["cone", "interior", "--relations", "unit.txt", "--nvars", "2", "--box", "1", "--steps", "2"], 0, 0, 0, "35824ccea9ba17ec"),
    ("qf", ["cone", "qf", "--assign", "1/2,1/3", "--box", "3"], 0, 0, 0, "4d574f3709671afd"),
    ("qf-no-variable", ["cone", "qf", "--relations", "trivial.txt", "--nvars", "0", "--box", "1"], 0, 0, 0, "1bb47f514ccf1572"),
    ("qf-not-found", ["cone", "qf", "--relations", "unit.txt", "--nvars", "2", "--box", "1", "--steps", "2"], 0, 0, 0, "b9420ea9935cf7b9"),
    ("purity-impure", ["cone", "purity", "--gens", "(2,0);(0,1)", "--box", "4"], 0, 0, 0, "34b1a1473b7dc046"),
    ("purity-pure", ["cone", "purity", "--gens", "(1,0);(0,1)", "--box", "3"], 0, 0, 0, "aae695c267aaa9fc"),
    ("purity-bad-vector", ["cone", "purity", "--gens", "(a,b)", "--box", "2"], 2, 2, 2, "d7d56d32bc49ab5d"),
    ("purity-wrong-arity", ["cone", "purity", "--gens", "(1,0);(1)", "--box", "2"], 2, 2, 2, "ee7e0aed2c8494dc"),
    ("purity-negative", ["cone", "purity", "--gens", "(-1,0)", "--box", "2"], 2, 2, 2, "cad4e76b499a2cbe"),
    # report schema and dispatch
    ("report-schema", ["report-schema"], 0, 0, 0, "2dfdb6876a9123ce"),
    ("unknown-subcommand", ["nosuchcommand"], 2, 2, 2, "0faf13d2b02ae954"),
    ("no-subcommand", [], 2, 2, 2, "0faf13d2b02ae954"),
]


def _run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    err = "".join(
        line for line in captured.err.splitlines(keepends=True) if not line.startswith("timing: ")
    )
    return code, captured.out, err


def transcript(capsys, name, argv):
    """Return the three exit codes and the digest prefix of one case."""
    codes, parts = [], []
    for mode in ("text", "json", "strict"):
        extra = {"text": [], "json": ["--json"], "strict": ["--strict"]}[mode]
        code, out, err = _run(capsys, [*argv, *extra])
        if mode == "json" and out:
            envelope = json.loads(out)
            jsonschema.validate(envelope, REPORT_SCHEMA)
            del envelope["timing_seconds"]
            out = json.dumps(envelope, indent=2, sort_keys=True)
        if name in _ARGPARSE_ERRORS:
            err = ""
        codes.append(code)
        parts.extend([mode, str(code), out, err])
    digest = hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:16]
    return (*codes, digest)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "name,argv,text_code,json_code,strict_code,digest",
    _CASES,
    ids=[case[0] for case in _CASES],
)
def test_cli_transcript_is_pinned(capsys, workdir, name, argv, text_code, json_code, strict_code, digest):
    assert transcript(capsys, name, argv) == (text_code, json_code, strict_code, digest)


def test_cases_have_unique_names():
    names = [case[0] for case in _CASES]
    assert len(names) == len(set(names))
    assert _ARGPARSE_ERRORS <= set(names)
