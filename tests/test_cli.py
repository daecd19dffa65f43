"""End-to-end checks for the command-line interface.

Most tests drive ``main(argv, env)`` in-process and read stdout/stderr via
capsys; two subprocess tests confirm the installed entry point behaves the
same.  Every JSON envelope produced here is validated against the published
schema, and exit codes are checked to be a function of the verdicts alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

from semiring_lab.cli import (
    ENV_VAR,
    REPORT_SCHEMA,
    SCHEMA_ID,
    HandlerResult,
    RunConfig,
    UsageError,
    _build_parser,
    main,
)


def run_cli(capsys, *argv, env=None):
    """Run main in-process with an isolated environment; return (code, out, err)."""
    code = main(list(argv), env={} if env is None else env)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, env=None):
    code, out, _ = run_cli(capsys, *argv, "--json", env=env)
    envelope = json.loads(out)
    jsonschema.validate(envelope, REPORT_SCHEMA)
    return code, envelope


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("2*T1*T2 - 1\n6*T1*T2^2 - 3*T2 - 1\n")
    return str(path)


@pytest.fixture
def gens_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text(
        "T1*T2\n"
        "2*T1*T2^2 - T2\n"
        "6*T1*T2^3 - 3*T2^2 - T2\n"
        "24*T1*T2^4 - 12*T2^3 - 4*T2^2 - T2\n"
    )
    return str(path)


@pytest.fixture
def absorbing_file(tmp_path):
    path = tmp_path / "absorbing.txt"
    path.write_text("T1 + 1 = T1\n")
    return str(path)


@pytest.fixture
def idempotent_file(tmp_path):
    path = tmp_path / "idempotent.txt"
    path.write_text("1 + 1 = 1\n")
    return str(path)


# -- poly -------------------------------------------------------------------


def test_poly_mul_pinned_square(capsys):
    code, out, err = run_cli(capsys, "poly", "mul", "T1+T2", "T1+T2")
    assert code == 0
    assert out == "T1^2 + 2*T1*T2 + T2^2\n"
    assert "timing:" in err


def test_poly_add_and_pow(capsys):
    code, out, _ = run_cli(capsys, "poly", "add", "T1^2", "2*T1 - 1")
    assert code == 0 and out.strip() == "T1^2 + 2*T1 - 1"
    code, out, _ = run_cli(capsys, "poly", "pow", "T1+1", "2")
    assert code == 0 and out.strip() == "T1^2 + 2*T1 + 1"


def test_poly_eval_exact_fraction(capsys):
    code, out, _ = run_cli(capsys, "poly", "eval", "2*T1*T2 - 1", "1/2,1/3")
    assert code == 0
    assert out.strip() == "-2/3"


def test_poly_natural_subtraction_refused(capsys):
    code, _, err = run_cli(capsys, "poly", "sub", "1", "2", "--domain", "nat")
    assert code == 2
    assert "error:" in err
    code, out, _ = run_cli(capsys, "poly", "sub", "2", "1", "--domain", "nat")
    assert code == 0 and out.strip() == "1"


def test_poly_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "poly", "mul", "T1+", "T2")
    assert code == 2
    assert "position" in err


def test_poly_bad_point_and_exponent(capsys):
    assert run_cli(capsys, "poly", "eval", "T1", "1/0,2")[0] == 2
    assert run_cli(capsys, "poly", "eval", "T1", "2")[0] == 2
    assert run_cli(capsys, "poly", "pow", "T1", "-1")[0] == 2
    assert run_cli(capsys, "poly", "pow", "T1", "x")[0] == 2


def test_poly_pow_size_limits(capsys):
    code, _, err = run_cli(capsys, "poly", "pow", "T1+T2+T3+T4+1", "21", "--nvars", "4")
    assert code == 2 and "12,650 terms" in err and "limit of 10,000 terms" in err
    code, _, err = run_cli(capsys, "poly", "pow", "3", "10000")
    assert code == 2 and "10,000 bits" in err
    code, out, _ = run_cli(capsys, "poly", "pow", "T1+T2", "200")
    assert code == 0 and out.startswith("T1^200 + 200*T1^199*T2 + ")


def test_poly_json_envelope(capsys):
    code, envelope = run_json(capsys, "poly", "mul", "T1+T2", "T1+T2")
    assert code == 0
    assert envelope["schema"] == SCHEMA_ID
    assert envelope["command"] == ["poly", "mul", "T1+T2", "T1+T2", "--json"]
    assert envelope["result"]["value"] == "T1^2 + 2*T1*T2 + T2^2"
    assert envelope["verdicts"] == {"computation": "ok"}
    assert envelope["budget_exhausted"] is False


# -- groebner ---------------------------------------------------------------


def test_groebner_member_unit_with_cofactors(capsys, ideal_file):
    code, envelope = run_json(
        capsys, "groebner", "member", "--ideal", ideal_file, "--poly", "1"
    )
    assert code == 0
    assert envelope["verdicts"] == {"membership": "member"}
    assert envelope["result"]["cofactors"] == ["3*T2", "-1"]
    assert any("1 = " in line for line in envelope["certificates"])


def test_groebner_member_negative(capsys, tmp_path):
    path = tmp_path / "squares.txt"
    path.write_text("T1^2\nT2^2\n")
    code, out, _ = run_cli(
        capsys, "groebner", "member", "--ideal", str(path), "--poly", "T1"
    )
    assert code == 0
    assert out.strip() == "non-member"


def test_groebner_basis_lists_generators(capsys, ideal_file):
    code, envelope = run_json(capsys, "groebner", "basis", "--ideal", ideal_file)
    assert code == 0
    assert envelope["verdicts"] == {"basis": "complete"}
    assert envelope["result"]["basis"]
    assert envelope["budget_exhausted"] is False


def test_groebner_relations_for_recurrence_generators(capsys, gens_file):
    code, out, _ = run_cli(capsys, "groebner", "relations", "--gens", gens_file)
    assert code == 0
    assert "X2*X4 - 3/2*X3^2 + 1/2*X3 - 1/2*X4" in out


def test_groebner_submember_integer_certificate(capsys, gens_file):
    code, envelope = run_json(
        capsys, "groebner", "submember", "--gens", gens_file, "--poly", "T1*T2"
    )
    assert code == 0
    assert envelope["verdicts"] == {"membership": "member"}
    assert envelope["result"]["representation"] == "X2"
    assert envelope["result"]["integral"] is True


def test_groebner_submember_rejects_ambient_variable(capsys, gens_file):
    code, out, _ = run_cli(
        capsys, "groebner", "submember", "--gens", gens_file, "--poly", "T2"
    )
    assert code == 0
    assert out.strip() == "non-member"


def test_groebner_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "groebner", "member", "--ideal", "/no/such/file", "--poly", "1"
    )
    assert code == 2
    assert "cannot read" in err


# -- presentation -----------------------------------------------------------


def test_presentation_equal_with_trace(capsys, absorbing_file):
    code, out, _ = run_cli(
        capsys,
        "presentation",
        "equal",
        "--relations",
        absorbing_file,
        "T1 + 2",
        "T1",
    )
    assert code == 0
    assert out.startswith("yes")


def test_presentation_equal_free_refuted(capsys):
    code, out, _ = run_cli(capsys, "presentation", "equal", "T1", "T1 + 1")
    assert code == 0
    assert out.strip() == "no"


def test_presentation_equal_unknown_exits_zero_without_strict(capsys, absorbing_file):
    argv = (
        "presentation",
        "equal",
        "--relations",
        absorbing_file,
        "T1",
        "T1 + 2",
        "--steps",
        "1",
        "--deg",
        "2",
        "--coeff",
        "2",
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.strip() == "unknown"
    assert run_cli(capsys, *argv, "--strict")[0] == 1


def test_presentation_word_outside_budget_box_is_usage_error(capsys, absorbing_file):
    code, _, err = run_cli(
        capsys,
        "presentation",
        "equal",
        "--relations",
        absorbing_file,
        "T1",
        "T1 + 3",
        "--steps",
        "1",
        "--deg",
        "2",
        "--coeff",
        "2",
    )
    assert code == 2
    assert "budget" in err


def test_word_outside_budget_box_names_the_flags_to_raise(capsys, absorbing_file):
    code, _, err = run_cli(
        capsys, "presentation", "equal", "--relations", absorbing_file, "T1", "T1^3", "--deg", "2"
    )
    assert code == 2
    assert "exceeds the budget box (degree <= 2" in err and "raise --deg/--coeff" in err


def test_oversized_zero_side_shift_list_fails_fast(capsys, tmp_path):
    # a zero relation side rewrites by adding every shift of the other side
    # that fits the degree budget: C(8 + 17, 8) = 1,081,575 of them here
    path = tmp_path / "zero.txt"
    path.write_text("T1 = 0\n")
    code, _, err = run_cli(
        capsys,
        "presentation",
        "equal",
        "--relations",
        str(path),
        "--nvars",
        "8",
        "--deg",
        "18",
        "T1",
        "T2",
    )
    assert code == 2
    assert "1,081,575 exponent vectors" in err and "limit of 1,000,000" in err
    assert "lower --deg or --nvars" in err and "raise --deg" not in err


def test_presentation_idempotent_yes_and_no(capsys, idempotent_file):
    code, out, _ = run_cli(
        capsys, "presentation", "idempotent", "--relations", idempotent_file
    )
    assert code == 0 and out.startswith("yes")
    code, out, _ = run_cli(capsys, "presentation", "idempotent", "--nvars", "1")
    assert code == 0 and out.strip() == "no"


def test_presentation_cancellative_witness(capsys, absorbing_file):
    code, envelope = run_json(
        capsys, "presentation", "cancellative", "--relations", absorbing_file
    )
    assert code == 0
    assert envelope["verdicts"] == {"cancellative": "no"}
    assert envelope["result"]["witness"] == ["1", "0", "T1"]


def test_presentation_find_l(capsys, absorbing_file):
    code, envelope = run_json(
        capsys, "presentation", "find-l", "--relations", absorbing_file
    )
    assert code == 0
    assert "T1" in envelope["result"]["members"]
    code, envelope = run_json(capsys, "presentation", "find-l", "--nvars", "1")
    assert code == 0
    assert envelope["result"]["members"] == []


def test_presentation_find_l_candidate_limit(capsys, absorbing_file):
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, "presentation", "find-l", "--relations", absorbing_file, "--nvars", "3"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "3^10 find-l candidates" in err and "limit of 10,000" in err
    assert "--nvars" in err
    code, envelope = run_json(
        capsys, "presentation", "find-l", "--relations", absorbing_file, "--nvars", "2"
    )
    members = envelope["result"]["members"]
    assert code == 0 and len(members) == 648
    assert members[:4] == ["T1", "2*T1", "T1 + 1", "T1 + 2"]
    assert members[-1] == "2*T1^2 + 2*T1*T2 + 2*T2^2 + 2*T1 + 2*T2 + 2"


def test_presentation_preorder(capsys):
    code, out, _ = run_cli(
        capsys, "presentation", "preorder", "--a", "1", "--b", "T1 + 2"
    )
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run_cli(
        capsys, "presentation", "preorder", "--a", "T1 + 1", "--b", "T1"
    )
    assert code == 0 and out.strip() == "no"


# -- abhyankar --------------------------------------------------------------


def test_abhyankar_verify_pinned_verdicts(capsys):
    code, envelope = run_json(capsys, "abhyankar", "verify", "--k", "6", "--deg", "8")
    assert code == 0
    assert envelope["verdicts"] == {
        "a": "holds",
        "b": "holds",
        "c": "fails",
        "d": "holds",
    }
    assert envelope["budget_exhausted"] is False
    assert any("1/20" in line for line in envelope["certificates"])
    assert envelope["result"]["evidence_level"] == 20


def test_abhyankar_verify_text_matches_json_verdicts(capsys):
    code, out, _ = run_cli(capsys, "abhyankar", "verify", "--k", "6", "--deg", "8")
    assert code == 0
    for letter, expected in (("a", "HOLDS"), ("b", "HOLDS"), ("c", "FAILS"), ("d", "HOLDS")):
        assert any(
            line.startswith(f"{letter}) {expected}") for line in out.splitlines()
        ), (letter, expected)


def test_abhyankar_verify_unverified_budget_degrades(capsys):
    code, envelope = run_json(
        capsys, "abhyankar", "verify", env={ENV_VAR: "deg=4"}
    )
    assert code == 0
    assert envelope["verdicts"]["a"] == "holds"
    assert envelope["verdicts"]["b"] == "unknown"
    assert envelope["budget_exhausted"] is True


def test_abhyankar_nonext(capsys):
    code, envelope = run_json(capsys, "abhyankar", "nonext", "--nmax", "10")
    assert code == 0
    assert envelope["verdicts"] == {"non-extendability": "holds"}
    assert envelope["result"]["levels"] == list(range(2, 11))
    assert run_cli(capsys, "abhyankar", "nonext", "--nmax", "1")[0] == 2


def test_abhyankar_generator_pinned(capsys):
    code, out, _ = run_cli(capsys, "abhyankar", "generator", "--n", "4")
    assert code == 0
    assert out.strip() == "6*T1*T2^3 - 3*T2^2 - T2"
    assert run_cli(capsys, "abhyankar", "generator", "--n", "1")[0] == 2


def test_abhyankar_image(capsys):
    code, out, _ = run_cli(capsys, "abhyankar", "image", "--rep", "X2")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run_cli(capsys, "abhyankar", "image", "--rep", "2*X2 - 1")
    assert code == 0 and out.strip() == "0"


# -- cone -------------------------------------------------------------------


def test_cone_enumerate_full_box(capsys):
    code, envelope = run_json(capsys, "cone", "enumerate", "--assign", "2,3", "--box", "2")
    assert code == 0
    assert envelope["verdicts"] == {"cone": "complete"}
    assert len(envelope["result"]["members"]) == 9
    assert envelope["result"]["unknown"] == []


def test_cone_purity_pinned_impure_witness(capsys):
    code, envelope = run_json(
        capsys, "cone", "purity", "--gens", "(2,0);(0,1)", "--box", "4"
    )
    assert code == 0
    assert envelope["verdicts"] == {"purity": "impure"}
    assert envelope["result"]["witness"]["quotient"] == [1, 0]


def test_cone_purity_pure_generators(capsys):
    code, out, _ = run_cli(capsys, "cone", "purity", "--gens", "(1,0);(0,1)", "--box", "3")
    assert code == 0
    assert out.strip() == "pure"


def test_cone_interior_and_qf(capsys):
    code, out, _ = run_cli(capsys, "cone", "interior", "--assign", "2,3", "--box", "3")
    assert code == 0 and out.strip() == "(0, 0)"
    code, envelope = run_json(capsys, "cone", "qf", "--assign", "2,3", "--box", "3")
    assert code == 0
    assert envelope["verdicts"] == {"fractions": "found"}
    assert all(row["valid"] for row in envelope["result"]["witnesses"])


def test_cone_requires_target(capsys):
    code, _, err = run_cli(capsys, "cone", "enumerate")
    assert code == 2
    assert "--assign" in err


def test_cone_bad_vector_syntax(capsys):
    assert run_cli(capsys, "cone", "purity", "--gens", "(a,b)", "--box", "2")[0] == 2


# -- input limits -----------------------------------------------------------


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="Python prints integers of any length"
)
def test_coefficient_too_long_to_print_is_usage_error(capsys):
    nines = "9" * 2500
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "poly", "mul", f"{nines}*T1", nines)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 2 and out == ""
    assert err == (
        "error: a coefficient has more than 4,300 digits, Python's limit for printing "
        "an integer (PYTHONINTMAXSTRDIGITS raises it)\n"
    )


_NVARS_COMMANDS = [
    ("poly", "add", "1", "1"),
    ("groebner", "basis", "--ideal", "x"),
    ("groebner", "member", "--ideal", "x", "--poly", "1"),
    ("groebner", "relations", "--gens", "x"),
    ("groebner", "submember", "--gens", "x", "--poly", "1"),
    ("presentation", "equal", "1", "1"),
    ("presentation", "idempotent"),
    ("presentation", "cancellative"),
    ("presentation", "find-l"),
    ("presentation", "preorder", "--a", "1", "--b", "1"),
    ("cone", "enumerate", "--relations", "x"),
    ("cone", "interior", "--relations", "x"),
    ("cone", "qf", "--relations", "x"),
]


@pytest.mark.parametrize("argv", _NVARS_COMMANDS, ids=" ".join)
def test_negative_nvars_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--nvars", "-1")
    assert code == 2 and out == ""
    assert err == "error: argument --nvars: must be nonnegative, got -1\n"


def test_zero_nvars_keeps_its_answers(capsys):
    assert run_cli(capsys, "poly", "add", "1", "2", "--nvars", "0")[:2] == (0, "3\n")
    assert run_cli(capsys, "presentation", "idempotent", "--nvars", "0")[:2] == (0, "no\n")
    assert run_cli(capsys, "cone", "enumerate", "--relations", os.devnull, "--nvars", "0")[:2] == (0, "()\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("cone", "enumerate", "--assign", "2,3", "--box", "3000"), "[0, 3000]^2 holds 3001^2 exponent vectors"),
        (("cone", "enumerate", "--assign", "2,3,5,7,11,13,17,19"), "[0, 6]^8 holds 7^8 exponent vectors"),
        (("cone", "purity", "--gens", "(1,0);(0,1)", "--box", "2000"), "[0, 2000]^2 holds 2001^2 exponent vectors"),
        (("abhyankar", "generator", "--n", "100000"), "generator 100,000 is over the limit of 1,000 (lower --n)"),
        (("abhyankar", "generator", "--n", "1001"), "generator 1,001 is over the limit of 1,000 (lower --n)"),
        (("abhyankar", "nonext", "--nmax", "100000000"), "--nmax 100,000,000 levels exceed the limit of 100,000 (lower --nmax)"),
        (("abhyankar", "nonext", "--nmax", "100001"), "--nmax 100,001 levels exceed the limit of 100,000"),
    ],
)
def test_oversized_input_fails_fast(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and message in err
    if argv[0] == "cone":
        assert "over the limit of 100,000 (lower --box" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("groebner", "member", "--ideal", "{}", "--poly", "1"),
        ("presentation", "equal", "--relations", "{}", "T1", "T1"),
    ],
    ids=["ideal", "relations"],
)
def test_input_file_that_is_not_utf8_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"T1\xff\n")
    code, out, err = run_cli(capsys, *(arg.format(path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")


# -- config, env, report ----------------------------------------------------


def test_unknown_flag_rejected(capsys):
    assert run_cli(capsys, "poly", "mul", "1", "1", "--frobnicate")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2


# every leaf subcommand, the arguments it requires, and the budget flags its
# handler reads; any other budget flag is a usage error
_BUDGET_FLAGS = ("deg", "coeff", "steps", "box", "k")
_GROEBNER = {"deg", "steps"}
_SEMIRING = {"deg", "coeff", "steps"}
_LEAF_BUDGETS = {
    ("poly",): (("mul", "1", "1"), set()),
    ("groebner", "basis"): (("--ideal", "f"), _GROEBNER),
    ("groebner", "member"): (("--ideal", "f", "--poly", "1"), _GROEBNER),
    ("groebner", "relations"): (("--gens", "f"), _GROEBNER),
    ("groebner", "submember"): (("--gens", "f", "--poly", "1"), _GROEBNER),
    ("presentation", "equal"): (("1", "1"), _SEMIRING),
    ("presentation", "idempotent"): ((), _SEMIRING),
    ("presentation", "cancellative"): ((), _SEMIRING),
    ("presentation", "find-l"): ((), _SEMIRING),
    ("presentation", "preorder"): (("--a", "1", "--b", "1"), _SEMIRING),
    ("abhyankar", "verify"): ((), {"k"} | _GROEBNER),
    ("abhyankar", "nonext"): ((), set()),
    ("abhyankar", "generator"): (("--n", "2"), set()),
    ("abhyankar", "image"): (("--rep", "X2"), {"k"} | _GROEBNER),
    ("cone", "enumerate"): (("--assign", "2"), {"box"} | _SEMIRING),
    ("cone", "interior"): (("--assign", "2"), {"box"} | _SEMIRING),
    ("cone", "qf"): (("--assign", "2"), {"box"} | _SEMIRING),
    ("cone", "purity"): (("--gens", "(1)"), {"box"}),
    ("report-schema",): ((), set()),
}


def _leaves(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaves(child, (*path, name))


def test_leaf_table_covers_the_parser_and_counts_its_budget_flags():
    assert set(_leaves(_build_parser())) == set(_LEAF_BUDGETS)
    assert len(_LEAF_BUDGETS) * len(_BUDGET_FLAGS) == 95
    assert sum(len(flags) for _, flags in _LEAF_BUDGETS.values()) == 42


@pytest.mark.parametrize("path", list(_LEAF_BUDGETS), ids="-".join)
def test_leaf_takes_exactly_the_budget_flags_it_reads(capsys, path):
    required, flags = _LEAF_BUDGETS[path]
    for flag in _BUDGET_FLAGS:
        argv = [*path, *required, f"--{flag}", "7"]
        if flag in flags:
            assert getattr(_build_parser().parse_args(argv), flag) == 7
        else:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert f"--{flag}" in err


def test_nonpositive_budgets_rejected(capsys, ideal_file, absorbing_file):
    code, _, err = run_cli(capsys, "groebner", "basis", "--ideal", ideal_file, "--deg", "0")
    assert code == 2 and "budget --deg must be positive, got 0" in err
    code, _, err = run_cli(
        capsys, "presentation", "equal", "--relations", absorbing_file, "T1", "T1 + 2",
        "--steps", "-5",
    )
    assert code == 2 and "budget --steps must be positive, got -5" in err
    assert run_cli(capsys, "abhyankar", "image", "--rep", "X2", "--k", "1")[0] == 2


def test_env_budget_override_and_flag_precedence(capsys):
    env = {ENV_VAR: "deg=4"}
    code, envelope = run_json(capsys, "abhyankar", "image", "--rep", "X2", env=env)
    assert code == 0
    assert envelope["verdicts"] == {"image": "unknown"}
    assert envelope["budget_exhausted"] is True
    code, envelope = run_json(
        capsys, "abhyankar", "image", "--rep", "X2", "--deg", "8", env=env
    )
    assert code == 0
    assert envelope["verdicts"] == {"image": "ok"}
    assert envelope["result"]["value"] == "1/2"


def test_env_budget_rejects_garbage(capsys):
    assert run_cli(capsys, "poly", "add", "1", "1", env={ENV_VAR: "bogus=3"})[0] == 2
    assert run_cli(capsys, "poly", "add", "1", "1", env={ENV_VAR: "deg=two"})[0] == 2
    assert run_cli(capsys, "poly", "add", "1", "1", env={ENV_VAR: "deg"})[0] == 2
    # the variable is validated as a whole, also for budgets the command does not read
    assert run_cli(capsys, "poly", "mul", "1", "1", env={ENV_VAR: "k=1"})[0] == 2


def test_strict_flag_flips_unknown_to_failure(capsys):
    env = {ENV_VAR: "deg=4"}
    assert run_cli(capsys, "abhyankar", "image", "--rep", "X2", env=env)[0] == 0
    assert (
        run_cli(capsys, "abhyankar", "image", "--rep", "X2", "--strict", env=env)[0]
        == 1
    )


def test_report_schema_subcommand_prints_schema(capsys):
    code, out, _ = run_cli(capsys, "report-schema")
    assert code == 0
    assert json.loads(out)["$id"] == SCHEMA_ID


def test_report_rejects_bare_verdict_without_certificate():
    with pytest.raises(RuntimeError, match="lacks a certificate"):
        HandlerResult(verdicts={"thing": "holds"}, certificates=[], result={}, display=[])
    with pytest.raises(RuntimeError, match="without a reason"):
        HandlerResult(verdicts={"thing": "unknown"}, certificates=[], result={}, display=[])


def test_runconfig_validation():
    with pytest.raises(UsageError):
        RunConfig(0, 64, 100, 6, 6, False, False)
    with pytest.raises(UsageError):
        RunConfig(8, 64, 100, -1, 6, False, False)
    cfg = RunConfig(8, 64, 100, 6, 6, False, False)
    assert cfg.groebner_budget.max_degree == 8
    assert cfg.semiring_budget.max_coeff == 64


def test_json_runs_are_deterministic(capsys):
    def strip_timing(e):
        return {k: v for k, v in e.items() if k != "timing_seconds"}

    first = run_json(capsys, "abhyankar", "verify", "--k", "5")[1]
    second = run_json(capsys, "abhyankar", "verify", "--k", "5")[1]
    assert strip_timing(first) == strip_timing(second)


def test_exit_code_is_independent_of_output_mode(capsys):
    text_code = run_cli(capsys, "abhyankar", "verify", "--k", "5")[0]
    json_code = run_cli(capsys, "abhyankar", "verify", "--k", "5", "--json")[0]
    assert text_code == json_code == 0


# -- subprocess end-to-end --------------------------------------------------


def _spawn(*argv):
    return subprocess.run(
        [sys.executable, "-m", "semiring_lab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_subprocess_poly_mul():
    proc = _spawn("poly", "mul", "T1+T2", "T1+T2")
    assert proc.returncode == 0
    assert proc.stdout == "T1^2 + 2*T1*T2 + T2^2\n"
    assert "timing:" in proc.stderr


def test_subprocess_verify_json_schema_valid():
    proc = _spawn("abhyankar", "verify", "--k", "6", "--deg", "8", "--json")
    assert proc.returncode == 0
    envelope = json.loads(proc.stdout)
    jsonschema.validate(envelope, REPORT_SCHEMA)
    assert envelope["verdicts"] == {
        "a": "holds",
        "b": "holds",
        "c": "fails",
        "d": "holds",
    }
