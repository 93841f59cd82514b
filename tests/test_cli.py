"""Exercises the command line interface through main(argv).

Exit codes and output are asserted exactly as a shell user would see
them. The JSON payload is a public contract, so one line is frozen byte
for byte; the rest is checked structurally.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from math import prod

import pytest
from families import ORDER_16, cycle, cyclic_product, perm_spec, regular
from hypothesis import given, settings
from hypothesis import strategies as st

from noethercheck.cli import (
    _build_parser,
    _plain_check_args,
    group_spec_string,
    main,
    parse_field,
    parse_group,
)
from noethercheck.exact import QQ
from noethercheck.groups import Catalog, PermGens


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


_C8_Q_JSON = (
    '{"group":{"spec":"catalog:C8","order":8,"abelian_invariants":[8],'
    '"sylow2_order":8,"sylow2_is_q16":false},"field":"Q",'
    '"verdict":"not_retract_rational","theorem":"1.2",'
    '"witness":{"n":3,"d1":3},'
    '"checks":[{"name":"cyclic_2power_quotient","result":"pass",'
    '"detail":"largest cyclic 2-power quotient 2^3"},'
    '{"name":"cyclotomic_noncyclic","result":"pass",'
    '"detail":"Q(zeta_(2^3))/Q is not cyclic"}],'
    '"bailey_e":1}'
)


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("  Q ") is QQ
    assert parse_field("Q(sqrt 2)").d == 2
    assert parse_field("Q(sqrt 8)").d == 2
    assert parse_field("Q( sqrt -4 )").d == -1
    assert str(parse_field("Q(sqrt 12)")) == "Q(sqrt 3)"
    for bad in ("q", "Q[sqrt 2]", "Q(sqrt 2", "", "Q()"):
        with pytest.raises(ValueError, match="bad field"):
            parse_field(bad)
    with pytest.raises(ValueError, match="^radicand is not an integer: 'x'$"):
        parse_field("Q(sqrt x)")


def test_parse_field_returns_the_same_descriptor_for_a_repeated_text():
    parse_field.cache_clear()
    first = parse_field("Q(sqrt 17)")
    assert parse_field("Q(sqrt 17)") is first
    assert parse_field.cache_info().hits == 1


@pytest.mark.parametrize("text", ["Q(sqrt 9)", "Q(sqrt x)"])
def test_parse_field_keeps_no_refusal(text):
    parse_field.cache_clear()
    parse_field("Q(sqrt 17)")
    size = parse_field.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            parse_field(text)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert parse_field.cache_info().currsize == size


def test_parse_field_memo_is_bounded():
    parse_field.cache_clear()
    assert parse_field.cache_info().maxsize == 1024
    # a negative radicand is never a square, so every text is accepted
    first = parse_field("Q(sqrt -1)")
    for i in range(2, 1027):
        parse_field(f"Q(sqrt -{i})")
    info = parse_field.cache_info()
    assert info.currsize == 1024 and info.misses == 1026
    assert parse_field("Q(sqrt -1)") == first
    assert parse_field.cache_info().misses == 1027


def test_check_repeated_in_one_process_prints_the_same_bytes(capsys):
    parse_field.cache_clear()
    argv = ("check", "--group", "catalog:Q16", "--field", "Q(sqrt 17)", "--json")
    first = _run(capsys, *argv)
    assert _run(capsys, *argv) == first
    assert first[0] == 0 and first[2] == ""
    assert parse_field.cache_info().hits == 1


def test_parse_group_round_trip():
    assert parse_group("catalog:C8") == Catalog("C8")
    assert group_spec_string(parse_group(" catalog:C8 ")) == "catalog:C8"
    spec = parse_group("metacyclic:a=8, b=2, c=4, r=7")
    assert group_spec_string(spec) == "metacyclic:a=8,b=2,c=4,r=7"
    spec = parse_group("perm:(1 2);(1 2 3 4)")
    assert isinstance(spec, PermGens)
    assert group_spec_string(spec) == "perm:(1 2);(1 2 3 4)"
    assert group_spec_string(parse_group("perm:()")) == "perm:()"


def test_parse_group_errors():
    with pytest.raises(ValueError, match="unknown catalog group"):
        parse_group("catalog:NOPE")
    with pytest.raises(ValueError, match="at least one generator"):
        parse_group("perm:")
    with pytest.raises(ValueError, match="bad metacyclic parameter"):
        parse_group("metacyclic:a=8,b=2,c=4,x=7")
    with pytest.raises(ValueError, match="bad metacyclic parameter"):
        parse_group("metacyclic:a=8,a=8,b=2,r=7")
    with pytest.raises(ValueError, match="needs all of"):
        parse_group("metacyclic:a=8,b=2,c=4")
    with pytest.raises(ValueError, match="unrecognized group spec"):
        parse_group("C8")


def test_check_json_frozen(capsys):
    code, out, err = _run(capsys, "check", "--group", "catalog:C8", "--field", "Q", "--json")
    assert code == 0
    assert err == ""
    assert out == _C8_Q_JSON + "\n"
    # whitespace around the arguments must not leak into the output
    code, out, _ = _run(capsys, "check", "--group", " catalog:C8 ", "--field", " Q ", "--json")
    assert code == 0
    assert out == _C8_Q_JSON + "\n"


def test_check_json_inconclusive(capsys):
    code, out, err = _run(
        capsys, "check", "--group", "catalog:Q16", "--field", "Q(sqrt -7)", "--json"
    )
    assert code == 2
    assert err == ""
    payload = json.loads(out)
    assert list(payload) == [
        "group", "field", "verdict", "theorem", "witness", "checks", "bailey_e",
    ]
    assert list(payload["group"]) == [
        "spec", "order", "abelian_invariants", "sylow2_order", "sylow2_is_q16",
    ]
    assert payload["group"] == {
        "spec": "catalog:Q16",
        "order": 16,
        "abelian_invariants": [2, 2],
        "sylow2_order": 16,
        "sylow2_is_q16": True,
    }
    assert payload["field"] == "Q(sqrt -7)"
    assert payload["verdict"] == "inconclusive"
    assert payload["theorem"] is None
    assert payload["witness"] is None
    assert payload["bailey_e"] == 0
    assert [(c["name"], c["result"]) for c in payload["checks"]] == [
        ("cyclic_2power_quotient", "fail"),
        ("sylow2_q16", "pass"),
        ("form_3_1_m7_anisotropic", "pass"),
        ("form_8_1_anisotropic", "fail"),
    ]


def test_check_json_fires_quaternion_criterion(capsys):
    code, out, _ = _run(
        capsys, "check", "--group", "metacyclic:a=8,b=2,c=4,r=7", "--field", "Q", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["group"]["spec"] == "metacyclic:a=8,b=2,c=4,r=7"
    assert payload["group"]["sylow2_is_q16"] is True
    assert payload["verdict"] == "not_retract_rational"
    assert payload["theorem"] == "1.5"
    assert payload["witness"] == {
        "sylow_order": 16,
        "form_3_1_m7_anisotropic": True,
        "form_8_1_anisotropic": True,
    }


def test_check_field_normalization(capsys):
    code, out, _ = _run(capsys, "check", "--group", "catalog:C1", "--field", "Q(sqrt 8)", "--json")
    assert code == 2
    assert json.loads(out)["field"] == "Q(sqrt 2)"


def test_check_human_fired(capsys):
    code, out, err = _run(capsys, "check", "--group", "catalog:C8", "--field", "Q")
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "group: catalog:C8 (order 8)",
        "field: Q",
        "abelian invariants: (8)",
        "2-Sylow: order 8, Q16 = no",
        "bailey_e: 1",
        "  cyclic_2power_quotient: pass (largest cyclic 2-power quotient 2^3)",
        "  cyclotomic_noncyclic: pass (Q(zeta_(2^3))/Q is not cyclic)",
        "verdict: not_retract_rational by theorem 1.2 (n=3, d1=3)",
    ]


def test_check_human_inconclusive(capsys):
    code, out, err = _run(capsys, "check", "--group", "catalog:C8", "--field", "Q(sqrt 2)")
    assert code == 2
    assert err == ""
    assert out.splitlines() == [
        "group: catalog:C8 (order 8)",
        "field: Q(sqrt 2)",
        "abelian invariants: (8)",
        "2-Sylow: order 8, Q16 = no",
        "bailey_e: 0",
        "  cyclic_2power_quotient: pass (largest cyclic 2-power quotient 2^3)",
        "  cyclotomic_noncyclic: fail (cyclotomic extension cyclic: Q(sqrt 2)(zeta_(2^3))/Q(sqrt 2))",
        "  sylow2_q16: fail (2-Sylow subgroup is not Q16 (order 8))",
        "  form_3_1_m7_anisotropic: fail (<1,1,1,-7> isotropic over Q(sqrt 2))",
        "  form_8_1_anisotropic: pass (<1,1,1,1,1,1,1,1> anisotropic over Q(sqrt 2))",
        "verdict: inconclusive",
        "  reason: cyclotomic extension cyclic: Q(sqrt 2)(zeta_(2^3))/Q(sqrt 2)",
        "  reason: 2-Sylow subgroup is not Q16 (order 8)",
        "  reason: 3<1>+<-7> isotropic over Q(sqrt 2)",
    ]


def test_check_human_perfect_group(capsys):
    code, out, _ = _run(capsys, "check", "--group", "catalog:SL2_7", "--field", "Q(sqrt 17)")
    assert code == 0
    assert out.splitlines() == [
        "group: catalog:SL2_7 (order 336)",
        "field: Q(sqrt 17)",
        "abelian invariants: (-)",
        "2-Sylow: order 16, Q16 = yes",
        "bailey_e: 0",
        "  cyclic_2power_quotient: fail (no cyclic quotient of order 2^n with n >= 3"
        " (largest is 2^0))",
        "  sylow2_q16: pass (2-Sylow subgroup is Q16)",
        "  form_3_1_m7_anisotropic: pass (<1,1,1,-7> anisotropic over Q(sqrt 17))",
        "  form_8_1_anisotropic: pass (<1,1,1,1,1,1,1,1> anisotropic over Q(sqrt 17))",
        "verdict: not_retract_rational by theorem 1.5 (sylow_order=16,"
        " form_3_1_m7_anisotropic=True, form_8_1_anisotropic=True)",
    ]


def test_catalog(capsys):
    code, out, err = _run(capsys, "catalog")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 72
    assert lines[0] == "C1: order 1, sylow2 = itself, Q16 = no"
    assert lines[11] == "C12: order 12, sylow2 order 4, Q16 = no"
    assert lines[-1] == "Ex3_3: order 1024, sylow2 = itself, Q16 = no"
    assert "Q16: order 16, sylow2 = itself, Q16 = yes" in lines
    assert "S4: order 24, sylow2 order 8, Q16 = no" in lines
    assert "SL2_7: order 336, sylow2 order 16, Q16 = yes" in lines
    assert "SL2_9: order 720, sylow2 order 16, Q16 = yes" in lines


# the whole `catalog` output, as printed before SL2_7 and SL2_9 became
# permutation specs
CATALOG_OUTPUT = """\
C1: order 1, sylow2 = itself, Q16 = no
C2: order 2, sylow2 = itself, Q16 = no
C3: order 3, sylow2 order 1, Q16 = no
C4: order 4, sylow2 = itself, Q16 = no
C5: order 5, sylow2 order 1, Q16 = no
C6: order 6, sylow2 order 2, Q16 = no
C7: order 7, sylow2 order 1, Q16 = no
C8: order 8, sylow2 = itself, Q16 = no
C9: order 9, sylow2 order 1, Q16 = no
C10: order 10, sylow2 order 2, Q16 = no
C11: order 11, sylow2 order 1, Q16 = no
C12: order 12, sylow2 order 4, Q16 = no
C13: order 13, sylow2 order 1, Q16 = no
C14: order 14, sylow2 order 2, Q16 = no
C15: order 15, sylow2 order 1, Q16 = no
C16: order 16, sylow2 = itself, Q16 = no
C17: order 17, sylow2 order 1, Q16 = no
C18: order 18, sylow2 order 2, Q16 = no
C19: order 19, sylow2 order 1, Q16 = no
C20: order 20, sylow2 order 4, Q16 = no
C21: order 21, sylow2 order 1, Q16 = no
C22: order 22, sylow2 order 2, Q16 = no
C23: order 23, sylow2 order 1, Q16 = no
C24: order 24, sylow2 order 8, Q16 = no
C25: order 25, sylow2 order 1, Q16 = no
C26: order 26, sylow2 order 2, Q16 = no
C27: order 27, sylow2 order 1, Q16 = no
C28: order 28, sylow2 order 4, Q16 = no
C29: order 29, sylow2 order 1, Q16 = no
C30: order 30, sylow2 order 2, Q16 = no
C31: order 31, sylow2 order 1, Q16 = no
C32: order 32, sylow2 = itself, Q16 = no
C33: order 33, sylow2 order 1, Q16 = no
C34: order 34, sylow2 order 2, Q16 = no
C35: order 35, sylow2 order 1, Q16 = no
C36: order 36, sylow2 order 4, Q16 = no
C37: order 37, sylow2 order 1, Q16 = no
C38: order 38, sylow2 order 2, Q16 = no
C39: order 39, sylow2 order 1, Q16 = no
C40: order 40, sylow2 order 8, Q16 = no
C41: order 41, sylow2 order 1, Q16 = no
C42: order 42, sylow2 order 2, Q16 = no
C43: order 43, sylow2 order 1, Q16 = no
C44: order 44, sylow2 order 4, Q16 = no
C45: order 45, sylow2 order 1, Q16 = no
C46: order 46, sylow2 order 2, Q16 = no
C47: order 47, sylow2 order 1, Q16 = no
C48: order 48, sylow2 order 16, Q16 = no
C49: order 49, sylow2 order 1, Q16 = no
C50: order 50, sylow2 order 2, Q16 = no
C51: order 51, sylow2 order 1, Q16 = no
C52: order 52, sylow2 order 4, Q16 = no
C53: order 53, sylow2 order 1, Q16 = no
C54: order 54, sylow2 order 2, Q16 = no
C55: order 55, sylow2 order 1, Q16 = no
C56: order 56, sylow2 order 8, Q16 = no
C57: order 57, sylow2 order 1, Q16 = no
C58: order 58, sylow2 order 2, Q16 = no
C59: order 59, sylow2 order 1, Q16 = no
C60: order 60, sylow2 order 4, Q16 = no
C61: order 61, sylow2 order 1, Q16 = no
C62: order 62, sylow2 order 2, Q16 = no
C63: order 63, sylow2 order 1, Q16 = no
C64: order 64, sylow2 = itself, Q16 = no
D16: order 16, sylow2 = itself, Q16 = no
SD16: order 16, sylow2 = itself, Q16 = no
Q16: order 16, sylow2 = itself, Q16 = yes
S4: order 24, sylow2 order 8, Q16 = no
A4: order 12, sylow2 order 4, Q16 = no
SL2_7: order 336, sylow2 order 16, Q16 = yes
SL2_9: order 720, sylow2 order 16, Q16 = yes
Ex3_3: order 1024, sylow2 = itself, Q16 = no
"""


def test_catalog_output_frozen(capsys):
    assert _run(capsys, "catalog") == (0, CATALOG_OUTPUT, "")


def test_oracle_three_squares(capsys):
    code, out, err = _run(capsys, "oracle", "three-squares", "500")
    assert code == 0
    assert err == ""
    assert out == "500/500 agree\n"


def test_oracle_hilbert(capsys):
    code, out, err = _run(capsys, "oracle", "hilbert", "300")
    assert code == 0
    assert err == ""
    assert out == "reciprocity holds on 300 samples\n"


def test_oracle_three_squares_reports_the_first_mismatch(capsys, monkeypatch):
    from noethercheck import quadforms

    real = quadforms.three_squares_nat
    monkeypatch.setattr(quadforms, "three_squares_nat", lambda n: real(n) != (n == 7))
    assert _run(capsys, "oracle", "three-squares", "50") == (1, "", "mismatch at n = 7\n")


def test_oracle_hilbert_reports_the_failures(capsys, monkeypatch):
    # a symbol with the wrong sign at the real place breaks the product
    # formula on every sample
    from noethercheck import oracles

    real = oracles.hilbert_symbol
    monkeypatch.setattr(
        oracles, "hilbert_symbol", lambda a, b, v: -real(a, b, v) if v.p is None else real(a, b, v)
    )
    assert _run(capsys, "oracle", "hilbert", "100") == (1, "", "100 reciprocity failures\n")


def test_oracle_isotropy(capsys):
    code, out, err = _run(capsys, "oracle", "isotropy", "60")
    assert code == 0
    assert err == ""
    assert out == "all dim <= 4 sample forms agree\n"


def test_oracle_isotropy_height_too_small_is_no_mismatch(capsys, monkeypatch):
    # every isotropic grid form has a zero of height 7 or less; below
    # that the search is too shallow, which is an error and not a mismatch
    code, out, err = _run(capsys, "oracle", "isotropy", "6")
    assert (code, out) == (1, "")
    assert err == "error: height 6 is too small: <2,-7,-7,-7> needs height 7 for an integer zero\n"
    code, out, err = _run(capsys, "oracle", "isotropy", "1")
    assert (code, out) == (1, "")
    assert err == "error: height 1 is too small: <1,1,-5> needs height 2 for an integer zero\n"
    # a lying isotropic_Q is still a mismatch at a small height: the
    # search goes on to the limit and finds no zero of <1>
    from noethercheck import cli, oracles

    assert oracles.GRID_HEIGHT == 60
    assert cli._ORACLE_LIMITS["isotropy"] == oracles.GRID_HEIGHT
    monkeypatch.setattr(oracles, "isotropic_Q", lambda f: True)
    code, out, err = _run(capsys, "oracle", "isotropy", "6")
    assert (code, out, err) == (1, "", "mismatch: no integer zero up to 60 for <1>\n")


def test_oracle_bounds(capsys):
    code, out, err = _run(capsys, "oracle", "three-squares", "20000")
    assert code == 1
    assert out == ""
    assert err == "error: bound for three-squares must be in [1, 10000]\n"
    code, _, err = _run(capsys, "oracle", "isotropy", "61")
    assert code == 1
    assert err == "error: bound for isotropy must be in [1, 60]\n"
    code, _, err = _run(capsys, "oracle", "hilbert", "0")
    assert code == 1
    assert "must be in [1, 10000]" in err


def test_bad_input_exits_1(capsys):
    code, _, err = _run(capsys, "check", "--group", "catalog:NOPE", "--field", "Q")
    assert code == 1
    assert err == "error: unknown catalog group: NOPE\n"
    code, _, err = _run(capsys, "check", "--group", "catalog:C8", "--field", "Q(sqrt 4)")
    assert code == 1
    assert err.startswith("error:")
    assert "square" in err
    code, _, err = _run(capsys, "check", "--group", "catalog:C8", "--field", "F_7")
    assert code == 1
    assert 'bad field (expected "Q" or "Q(sqrt D)")' in err
    code, _, err = _run(capsys, "check", "--group", "metacyclic:a=8,b=2,c=4", "--field", "Q")
    assert code == 1
    assert "needs all of" in err
    code, _, err = _run(capsys, "check", "--group", "metacyclic:a=4,b=2,c=0,r=2", "--field", "Q")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = _run(capsys, "check", "--group", "perm:(1 1)", "--field", "Q")
    assert code == 1
    assert err.startswith("error:")


def test_a_numeral_that_is_not_an_integer_names_its_field(capsys):
    for spec, message in (
        ("metacyclic:a=1e3,b=1,c=0,r=0", "metacyclic parameter a is not an integer: '1e3'"),
        ("metacyclic:a=8,b=2,c=4,r= 7x", "metacyclic parameter r is not an integer: ' 7x'"),
        ("perm:(1 x)", "point is not an integer: 'x'"),
    ):
        code, out, err = _run(capsys, "check", "--group", spec, "--field", "Q")
        assert (code, out, err) == (1, "", f"error: {message}\n"), spec


def test_usage_errors_exit_1(capsys):
    # argparse normally exits 2; that would collide with "inconclusive"
    code, _, err = _run(capsys)
    assert code == 1
    assert "usage:" in err
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    code, _, err = _run(capsys, "check", "--group", "catalog:C8")
    assert code == 1
    assert "--field" in err
    code, _, err = _run(capsys, "oracle", "nope", "5")
    assert code == 1
    code, _, err = _run(capsys, "oracle", "three-squares", "many")
    assert code == 1
    code, _, err = _run(capsys, "oracle", "three-squares")
    assert code == 1


def test_reused_parser_keeps_error_bytes(capsys):
    # the parser is built once per process; a parse, good or bad, must
    # leave nothing behind for the next one
    bad = ("check", "--group", "catalog:C8")
    first = _run(capsys, *bad)
    assert _run(capsys, "check", "--group", "catalog:C8", "--field", "Q")[0] == 0
    assert _run(capsys, "oracle", "nope", "5")[0] == 1
    assert _run(capsys, *bad) == first
    assert first[2].startswith("usage: noethercheck check ")


_VALUES = ("catalog:C8", "Q", "Q(sqrt -1)", "-1", "", "--", "-h", "--json")
_CHUNKS = (
    st.just(["--json"])
    | st.tuples(st.sampled_from(("--group", "--field", "--gr", "-h")), st.sampled_from(_VALUES))
    .map(list)
    | st.sampled_from(_VALUES).map(lambda v: [v])
)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(("check", "catalog", "--json")), st.lists(_CHUNKS, max_size=4))
def test_plain_check_lines_parse_as_argparse_does(command, chunks):
    # the direct reading of a check line must agree with argparse wherever
    # it answers; every other line is left to argparse
    argv = [command, *(tok for chunk in chunks for tok in chunk)]
    plain = _plain_check_args(argv)
    if plain is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert vars(_build_parser().parse_args(argv)) == vars(plain)


def test_plain_check_args_leaves_the_rest_to_argparse():
    ok = ["check", "--json", "--field", "Q", "--group", "catalog:C8"]
    assert _plain_check_args(ok) is not None
    for argv in (
        [],
        ["catalog"],
        ["check", "--group", "catalog:C8"],
        ["check", "--group", "catalog:C8", "--field", "-1"],
        ["check", "--group=catalog:C8", "--field", "Q"],
        ["check", "--gr", "catalog:C8", "--field", "Q"],
        ["check", "--group", "catalog:C8", "--field", "Q", "-h"],
    ):
        assert _plain_check_args(argv) is None, argv


# 20-digit primes, one in each odd class mod 8
_BIG_PRIMES = (
    10000000000000000097,  # 1 mod 8
    10000000000000000051,  # 3 mod 8
    10000000000000000381,  # 5 mod 8
    10000000000000000087,  # 7 mod 8
)


@pytest.mark.parametrize("D", [s * p for p in _BIG_PRIMES for s in (1, -1)])
def test_check_twenty_digit_prime_field(capsys, D):
    code, out, err = _run(
        capsys, "check", "--group", "catalog:Q16", "--field", f"Q(sqrt {D})", "--json"
    )
    assert err == ""
    data = json.loads(out)
    assert data["field"] == f"Q(sqrt {D})"
    fires = D > 0 and D % 8 == 1
    assert code == (0 if fires else 2)
    assert data["theorem"] == ("1.5" if fires else None)


def test_check_field_above_cap_exits_1(capsys):
    from noethercheck.exact import FACTORIZATION_CAP

    code, out, err = _run(
        capsys, "check", "--group", "catalog:Q16", "--field", f"Q(sqrt {FACTORIZATION_CAP + 7})"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert str(FACTORIZATION_CAP) in err


def test_check_metacyclic_above_cap_exits_1(capsys):
    from noethercheck.groups import METACYCLIC_CAP

    spec = f"metacyclic:a={METACYCLIC_CAP},b=2,c=0,r=1"
    code, out, err = _run(capsys, "check", "--group", spec, "--field", "Q")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert f"metacyclic cap {METACYCLIC_CAP}" in err


def test_check_permutation_degree_above_cap_exits_1(capsys):
    from noethercheck.groups import CLOSURE_CAP

    start = time.perf_counter()
    code, out, err = _run(capsys, "check", "--group", "perm:(1 1000000000000)", "--field", "Q")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert f"closure cap {CLOSURE_CAP}" in err
    # a transposition on the largest degree the cap allows still answers
    code, out, err = _run(capsys, "check", "--group", "perm:(1 1000000)", "--field", "Q")
    assert code == 2
    assert err == ""
    assert out.startswith("group: perm:(1 1000000) (order 2)\n")


_HUGE = "9" * 5000


@pytest.mark.parametrize(
    "group, field, cap",
    [
        ("catalog:C8", f"Q(sqrt {_HUGE})", "factorization cap"),
        (f"metacyclic:a={_HUGE},b=1,c=0,r=1", "Q", "metacyclic cap"),
        (f"perm:(1 {_HUGE})", "Q", "closure cap"),
    ],
    ids=["field", "metacyclic", "perm"],
)
def test_check_huge_numeral_names_the_cap(capsys, group, field, cap):
    # a numeral past Python's int string limit is refused by the input's
    # own cap before int() reads it, not by a message naming that limit
    code, out, err = _run(capsys, "check", "--group", group, "--field", field)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and cap in err
    assert "Exceeds the limit" not in err


def test_leading_zeros_do_not_count_against_the_cap(capsys):
    code, out, err = _run(capsys, "check", "--group", "perm:(1 " + "0" * 5000 + "2)", "--field", "Q")
    assert code == 2 and err == ""
    assert out.startswith("group: perm:(1 2) (order 2)\n")


def _child_check(spec, *flags):
    """`check --group spec --field Q` in a fresh interpreter: (exit code,
    stdout, stderr, peak RSS in MB). The peak is the child's own VmHWM:
    Linux carries ru_maxrss across exec, so that would report the RSS of
    this test process whenever it is the larger."""
    code = (
        "import sys\n"
        "from noethercheck.cli import main\n"
        "rc = main(['check', '--group', sys.argv[1], '--field', 'Q', *sys.argv[2:]])\n"
        "with open('/proc/self/status') as fh:\n"
        "    kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "print('rss', kb // 1024, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, spec, *flags], capture_output=True, text=True, timeout=60
    )
    *err, last = out.stderr.splitlines()
    return out.returncode, out.stdout, "\n".join(err), int(last.split()[1])


def test_check_q16_sylow_above_closure_cap_exits_1(capsys):
    from noethercheck.groups import CLOSURE_CAP

    # Q16 on itself by right multiplication, its cycles carried by s
    spec = perm_spec(regular(*ORDER_16["Q16"], odd=(3, 5, 7, 11, 13, 17), carried=True))
    start = time.perf_counter()
    code, out, err = _run(capsys, "check", "--group", spec, "--field", "Q")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "order 4084080" in err and f"closure cap {CLOSURE_CAP}" in err
    # the same group without the cycles is Q16, and the test fires
    code, out, err = _run(capsys, "check", "--group", perm_spec(regular(*ORDER_16["Q16"])), "--field", "Q")
    assert code == 0 and "(order 16)" in out and "theorem 1.5" in out


def test_check_q16_times_cycles_walks_the_chain():
    # order 16 * 15015 = 240240 on 55 points: the Q16 test walks the chain
    # and keeps no element, so neither time nor memory grows with |G|
    start = time.perf_counter()
    spec = perm_spec(regular(*ORDER_16["Q16"], odd=(3, 5, 7, 11, 13), carried=True))
    code, out, err, rss_mb = _child_check(spec, "--json")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    group = json.loads(out)["group"]
    assert (group["order"], group["sylow2_is_q16"]) == (240240, True)
    assert rss_mb < 60


def test_check_permutation_chain_above_cap_exits_1():
    from noethercheck.chain import CHAIN_CAP

    start = time.perf_counter()
    code, _, err, rss_mb = _child_check("perm:(1 2);" + cycle(1, 3000))
    assert time.perf_counter() - start < 10
    assert code == 1
    assert err.startswith("error:") and f"chain cap {CHAIN_CAP}" in err
    assert rss_mb < 500


def test_check_single_generator_above_metacyclic_cap_is_answered(capsys):
    # one generator is cyclic of order the lcm of its cycle lengths, and a
    # permutation spec meets no metacyclic cap
    from noethercheck.groups import METACYCLIC_CAP

    def facts(out):
        # the order, the invariants and the 2-Sylow line, not the echoed spec
        group, _, invariants, sylow = out.splitlines()[:4]
        return group.rpartition(" (order ")[2], invariants, sylow

    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    m = prod(primes)
    assert m > METACYCLIC_CAP
    code, out, err = _run(capsys, "check", "--group", "perm:" + "".join(cyclic_product(primes)),
                          "--field", "Q")
    assert (code, err) == (2, "")
    assert facts(out) == (f"{m})", f"abelian invariants: ({m})", "2-Sylow: order 2, Q16 = no")
    # beside its inverse, written as the reversed cycles, the generator goes
    # through the chain, which refuses the 4227 points above at its cap but
    # answers the primes up to 71
    cycles = cyclic_product([p for p in primes if p <= 71])
    g = "".join(cycles)
    g_inv = "".join("(" + " ".join(c[1:-1].split()[::-1]) + ")" for c in cycles)
    one = _run(capsys, "check", "--group", f"perm:{g}", "--field", "Q")
    two = _run(capsys, "check", "--group", f"perm:{g};{g_inv}", "--field", "Q")
    assert one[0] == two[0] == 2 and one[2] == two[2] == ""
    assert facts(one[1]) == facts(two[1])


def test_check_repeated_generator_is_read_once(capsys):
    # the cycles of the 46 primes below 200 given twice: one distinct
    # generator, answered as perm:G is, where a chain would pass its cap;
    # the spec is echoed as typed
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    g = "".join(cyclic_product(primes))
    one = _run(capsys, "check", "--group", f"perm:{g}", "--field", "Q")
    two = _run(capsys, "check", "--group", f"perm:{g};{g}", "--field", "Q")
    assert one[0] == two[0] == 2 and one[2] == two[2] == ""
    assert two[1] == one[1].replace(f"perm:{g} ", f"perm:{g};{g} ", 1)
    assert two[1].startswith(f"group: perm:{g};{g} (order {prod(primes)})\n")


def test_check_long_cycle_answers_fast(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, "check", "--group", "perm:" + cycle(1, 12000), "--field", "Q")
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    assert "(order 12000)" in out and "theorem 1.2" in out


def test_closed_pipe_exits_1_without_traceback():
    # `noethercheck catalog | head -1`: the reader is gone before the
    # catalog is written, as it is once head has read its line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "noethercheck.cli", "catalog"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")


def test_parity_tool_reports_an_unknown_revision_as_a_usage_error():
    # git's own words are not asserted, so this holds in a tree without .git
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "parity.py")
    out = subprocess.run(
        [sys.executable, tool, "--against", "no-such-rev"], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2
    assert any(line.startswith("parity.py: error: ") for line in out.stderr.splitlines())
    assert "Traceback" not in out.stderr
