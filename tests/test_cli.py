from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from smile_domain import EvaluationDomainError, cli
from smile_domain.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _strict(out: str) -> dict:
    """The one JSON line on stdout; Infinity and NaN are refused."""
    return json.loads(out, parse_constant=_no_constant)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------
def test_certify_pass_exit_zero(capsys):
    code, out = _run(
        capsys, "certify", "vanishing-up", "--b", "1", "--mu", "-2", "--sigma", "1"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == "smile-domain/1"
    assert doc["verdict"] == "arbitrage_free"
    assert doc["conditions"] == {
        "roger_lee": True,
        "fukasawa": True,
        "sigma_bound": True,
    }


def test_certify_fail_exit_one(capsys):
    code, out = _run(
        capsys, "certify", "extremal", "--gamma", "1", "--q", "0.5",
        "--sigma", "1.999",
    )
    doc = json.loads(out)
    assert code == 1
    assert doc["verdict"] == "arbitrage"
    assert doc["bounds"]["sigma_star"] == 2.0


def test_certify_invalid_exit_two(capsys):
    code, out = _run(
        capsys, "certify", "symmetric", "--gamma", "-1.5", "--b", "1",
        "--sigma", "9",
    )
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["type"] == "invalid_params"


def test_certify_with_oracle_consistent(capsys):
    code, out = _run(
        capsys, "certify", "ssvi", "--theta", "0.1", "--phi", "1",
        "--rho", "0.5", "--oracle",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["diagnostics"]["oracle_min"] >= -1e-8


def test_certify_oracle_at_a_subnormal_sigma_is_strict_json(capsys):
    # b/(2*sigma) overflows; the density functional's limit at l = +inf
    # stays 0, so the minimum is a number or -inf, never NaN
    code, out = _run(capsys, "certify", "vanishing-up", "--b", "0.5", "--mu", "0.1",
                     "--sigma", "1e-310", "--oracle")
    doc = _strict(out)
    assert code == 1 and doc["verdict"] == "arbitrage"
    low = doc["diagnostics"]["oracle_min"]
    assert low == "-inf" or low < 0.0


@pytest.mark.parametrize("family, level", [("vanishing-up", ("--mu", "0")), ("symmetric", ("--a", "0"))])
def test_certify_oracle_at_the_smallest_subnormal_sigma_is_a_certificate(capsys, family, level):
    # b*sigma underflows to 0; gamma = a/(b*sigma) is exactly 0 at a = 0
    code, out = _run(capsys, "certify", family, "--b", "0.5", *level, "--sigma", "5e-324", "--oracle")
    doc = _strict(out)
    assert code == 1 and doc["verdict"] == "arbitrage"
    assert doc["diagnostics"]["oracle_min"] == "-inf"


def test_bound_oracle_far_below_mu_0_prints_one_document(capsys):
    # the oracle's wing grid overflows h^2 - b^2*g^2 there, and no numpy
    # warning (an error under this suite's filter) escapes: one strict JSON
    # document, a bound or the typed failure of the search
    code, out = _run(capsys, "bound", "vanishing-up", "--b", "0.5", "--mu", "-1e160",
                     "--oracle", "--json")
    doc = _strict(out)
    assert code == 0 or (code == 3 and doc["error"]["type"] == "solver_failure")


def test_certify_accepts_raw_coordinates(capsys):
    # vanishing via raw m; symmetric via raw a
    code, out = _run(
        capsys, "certify", "vanishing-up", "--b", "0.5", "--m", "-2",
        "--sigma", "2",
    )
    assert json.loads(out)["params"]["native"]["mu"] == -1.0
    code, out = _run(
        capsys, "certify", "symmetric", "--a", "0.64", "--b", "1.6",
        "--sigma", "0.4",
    )
    assert json.loads(out)["params"]["native"]["gamma"] == pytest.approx(1.0)
    # ssvi via raw five parameters
    code, out = _run(
        capsys, "certify", "ssvi", "--a", "0.0375", "--b", "0.05",
        "--rho", "0.5", "--m", "-0.5", "--sigma", "0.8660254037844386",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["params"]["native"]["theta"] == pytest.approx(0.1, rel=1e-9)


@pytest.mark.parametrize(
    "raw, native",
    [(("extremal", "--a", "2", "--m", "0.3", "--sigma", "1"),
      ("extremal", "--gamma", "1", "--q", "0.3", "--sigma", "1")),
     (("vanishing-up", "--b", "0.5", "--m", "-0.3", "--sigma", "2"),
      ("vanishing-up", "--mu", "-0.15", "--b", "0.5", "--sigma", "2"))],
    ids=["extremal", "vanishing-up"],
)
def test_raw_routes_print_the_native_routes_bytes(capsys, raw, native):
    # the raw routes read their native coordinates off the smile's
    # normalization; a zero scale is an invalid input
    assert _run(capsys, "certify", *raw) == _run(capsys, "certify", *native)
    code, out = _run(capsys, "certify", *raw[:-1], "0")
    assert code == 2 and _strict(out)["error"]["type"] == "invalid_params"


def test_certify_missing_params(capsys):
    code, out = _run(capsys, "certify", "extremal", "--sigma", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------
def test_bound_text_and_oracle(capsys):
    code, out = _run(
        capsys, "bound", "extremal", "--gamma", "1", "--q", "0.5", "--oracle"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma_star = 2.0"
    assert "sigma_star_oracle" in lines[1]
    gap = float(lines[2].split("=")[1])
    assert gap <= 1e-9


def test_bound_json_ssvi(capsys):
    code, out = _run(
        capsys, "bound", "ssvi", "--b", "1.25", "--rho", "0.6", "--json",
        "--oracle",
    )
    doc = _strict(out)
    assert code == 0
    assert doc["sigma_star"] == pytest.approx(0.8, rel=1e-9)
    assert doc["oracle_side"] == "limit_at_infinity"
    assert doc["relative_gap"] <= 1e-6


def test_bound_extremal_oracle_near_unit_q(capsys):
    code, out = _run(
        capsys, "bound", "extremal", "--gamma", "0.17749082696424115",
        "--q", "-0.9999999", "--oracle", "--json",
    )
    doc = _strict(out)
    assert code == 0
    assert doc["oracle_side"] == "limit_at_infinity"
    assert doc["relative_gap"] <= 1e-6


@pytest.mark.parametrize("gamma", ["5e-324", "1e-310"])
def test_certify_extremal_subnormal_gamma_is_arbitrage(capsys, gamma):
    code, out = _run(
        capsys, "certify", "extremal", "--gamma", gamma, "--q", "0.5", "--sigma", "1"
    )
    assert code == 1
    assert json.loads(out)["bounds"]["sigma_star"] == "inf"
    code, out = _run(
        capsys, "bound", "extremal", "--gamma", gamma, "--q", "0.5", "--oracle", "--json"
    )
    doc = _strict(out)
    assert code == 0
    assert doc["sigma_star"] == doc["sigma_star_oracle"] == "inf"
    assert doc["relative_gap"] == 0.0


def test_bound_vanishing(capsys):
    code, out = _run(capsys, "bound", "vanishing-up", "--b", "1", "--mu", "-2")
    assert code == 0
    assert out.strip() == "sigma_star = 0.5"


BOUND_VS_CERTIFY = {
    "vanishing-up": (["--b", "0.4", "--mu", "-0.3"], ["--sigma", "1.7"]),
    "vanishing-down": (["--b", "0.6", "--mu", "0.2"], ["--sigma", "0.9"]),
    "extremal": (["--gamma", "1.3", "--q", "-0.4"], ["--sigma", "2.5"]),
    "symmetric": (["--gamma", "-0.3", "--b", "0.7"], ["--sigma", "1.1"]),
    "ssvi": (["--theta", "0.8", "--phi", "1.5", "--rho", "-0.35"], []),
}


@pytest.mark.parametrize("family", sorted(BOUND_VS_CERTIFY))
def test_bound_equals_certify_sigma_star(capsys, family):
    shape, scale = BOUND_VS_CERTIFY[family]
    code, out = _run(capsys, "bound", family, *shape, "--json")
    assert code == 0
    bound = _strict(out)["sigma_star"]
    _, out = _run(capsys, "certify", family, *shape, *scale)
    assert bound == _strict(out)["bounds"]["sigma_star"]
    assert math.isfinite(bound) and bound > 0.0


def test_bound_ssvi_beyond_slope_bound_is_arbitrage(capsys):
    # b*(1 + |rho|) = 2.4 > 2: no sigma repairs the slice
    code, out = _run(capsys, "bound", "ssvi", "--b", "1.5", "--rho", "0.6", "--json")
    assert code == 0
    assert _strict(out)["sigma_star"] == "inf"
    code, out = _run(
        capsys, "certify", "ssvi", "--b", "1.5", "--phi", "1", "--rho", "0.6"
    )
    assert code == 1
    assert _strict(out)["conditions"]["roger_lee"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("vanishing-up", "--b", "0.5", "--mu", "2"),
        ("symmetric", "--gamma", "-0.99", "--b", "1.5"),
        ("ssvi", "--b", "1.5", "--rho", "0.6"),
    ],
)
def test_bound_oracle_agrees_on_arbitrage(capsys, argv):
    code, out = _run(capsys, "bound", *argv, "--oracle", "--json")
    doc = _strict(out)
    assert code == 0
    assert doc["sigma_star"] == "inf"
    assert doc["sigma_star_oracle"] == "inf"
    assert doc["relative_gap"] == 0.0
    code, out = _run(capsys, "bound", *argv, "--oracle")
    assert out.splitlines() == [
        "sigma_star = inf", "sigma_star_oracle = inf", "relative_gap = 0.0"
    ]


def test_bound_ssvi_small_b_agrees_with_oracle(capsys):
    code, out = _run(
        capsys, "bound", "ssvi", "--b", "1e-8", "--rho", "0.5", "--oracle", "--json"
    )
    doc = _strict(out)
    assert code == 0
    assert doc["relative_gap"] <= 1e-9


def test_bound_ssvi_b_to_0_end_agrees_with_oracle(capsys):
    # b^2 is below the rounding of the critical-point residual at the
    # b -> 0 end, which was exit 2 with "f(a) and f(b) must have different signs"
    code, out = _run(
        capsys, "bound", "ssvi", "--b", "1e-13", "--rho", "-0.15", "--oracle", "--json"
    )
    doc = _strict(out)
    assert code == 0
    assert doc["relative_gap"] <= 1e-9


def test_bound_ssvi_next_to_rho_1_agrees_with_oracle(capsys):
    # the sweep end hugs the smile minimum at 1 - rho = 1e-7, which was
    # exit 3 with "no sweep endpoint bracket"
    code, out = _run(
        capsys, "bound", "ssvi", "--b", "1.0", "--rho", "0.9999999", "--oracle", "--json"
    )
    doc = _strict(out)
    assert code == 0
    assert doc["relative_gap"] <= 1e-6  # the benchmark's GAP_TOL


def test_certify_rejects_a_non_finite_field_as_invalid_params(capsys):
    # was exit 3, solver_failure, from the certificate's raw parameters
    code, out = _run(capsys, "certify", "symmetric", "--gamma", "inf", "--b", "1", "--sigma", "1")
    assert code == 2
    assert _strict(out)["error"]["type"] == "invalid_params"


def test_bound_ssvi_oracle_names_the_wing_of_the_given_slice(capsys):
    # the slice with rho < 0 is the strike inversion of the one with -rho
    docs = {}
    for rho in ("0.5", "-0.5"):
        code, out = _run(
            capsys, "bound", "ssvi", "--b", "0.9", "--rho", rho, "--oracle", "--json"
        )
        assert code == 0
        docs[rho] = _strict(out)
    for key in ("sigma_star_oracle", "relative_gap"):
        assert docs["-0.5"][key] == docs["0.5"][key]
    assert docs["0.5"]["oracle_side"] == "right"
    assert docs["-0.5"]["oracle_side"] == "left"


# ---------------------------------------------------------------------------
# failures on valid inputs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("command", ["certify", "bound"])
@pytest.mark.parametrize(
    "error", [EvaluationDomainError("not bracketed"), RuntimeError("no convergence"),
              ZeroDivisionError("float division by zero"), ValueError("NaN")]
)
def test_solver_failure_exit_three(capsys, monkeypatch, command, error):
    def fail(p):
        raise error

    fam = dataclasses.replace(cli.FAMILIES["symmetric"], certify=fail)
    monkeypatch.setitem(cli.FAMILIES, "symmetric", fam)
    code, out = _run(
        capsys, command, "symmetric", "--gamma", "0.5", "--b", "1", "--sigma", "1"
    )
    doc = _strict(out)
    assert code == 3
    assert doc["error"] == {"type": "solver_failure", "message": str(error)}


@pytest.mark.parametrize("command", ["certify", "bound"])
@pytest.mark.parametrize(
    "argv, unread",
    [
        (("symmetric", "--gamma", "0.3", "--b", "1", "--sigma", "1", "--rho", "0.9", "--m", "3"),
         "--rho --m"),
        (("ssvi", "--theta", "1", "--phi", "1", "--rho", "0.3", "--sigma", "100", "--a", "5"),
         "--a --sigma"),
        (("vanishing-up", "--b", "0.5", "--mu", "-1", "--m", "-2", "--sigma", "2"), "--m"),
        (("extremal", "--gamma", "1", "--q", "0.5", "--a", "2", "--m", "1", "--sigma", "1"),
         "--a --m"),
    ],
    ids=["symmetric", "ssvi", "vanishing-up", "extremal"],
)
def test_options_the_family_does_not_read_exit_two(capsys, command, argv, unread):
    code, out = _run(capsys, command, *argv)
    doc = _strict(out)
    assert code == 2
    assert doc["error"]["type"] == "invalid_params"
    assert f"does not read {unread} with" in doc["error"]["message"]


def test_bound_fills_only_the_scale_it_needs(capsys):
    # bound fills --sigma and --phi, but a raw SSVI slice with its own
    # --sigma still takes the raw route, and agrees with the native one
    raw = ("--a", "0.0375", "--b", "0.05", "--rho", "0.5", "--m", "-0.5",
           "--sigma", "0.8660254037844386")
    code, out = _run(capsys, "bound", "ssvi", *raw, "--json")
    assert code == 0
    _, native = _run(capsys, "bound", "ssvi", "--b", "0.05", "--rho", "0.5", "--json")
    assert _strict(out)["sigma_star"] == pytest.approx(_strict(native)["sigma_star"], rel=1e-12)


@pytest.mark.parametrize("command", ["certify", "bound"])
@pytest.mark.parametrize(
    "argv",
    [("--gamma", "-1.5", "--b", "1", "--sigma", "1"), ("--a", "1", "--b", "1", "--sigma", "0")],
)
def test_invalid_input_still_exits_two(capsys, command, argv):
    code, out = _run(capsys, command, "symmetric", *argv)
    assert code == 2
    assert _strict(out)["error"]["type"] == "invalid_params"


@pytest.mark.parametrize("command", ["certify", "bound"])
@pytest.mark.parametrize(
    "family, argv, option, value",
    [
        ("vanishing-up", ("--b", "0.5", "--sigma", "1"), "--mu", "-2e-5"),
        ("vanishing-down", ("--b", "0.5", "--sigma", "1"), "--mu", "-2E+0"),
        ("ssvi", ("--theta", "0.5", "--phi", "1"), "--rho", "-2.5e-1"),
        ("ssvi", ("--theta", "0.5", "--phi", "1"), "--rho", "-.25"),
        ("symmetric", ("--b", "1", "--sigma", "1"), "--gamma", "-5."),
        ("symmetric", ("--b", "1", "--sigma", "1"), "--gamma", "-1_0.5"),
        ("extremal", ("--gamma", "1", "--sigma", "1"), "--q", "-inf"),
        ("extremal", ("--gamma", "1", "--sigma", "1"), "--q", "-nan"),
    ],
)
def test_a_spaced_negative_value_reads_as_its_equals_form(capsys, command, family, argv,
                                                            option, value):
    # argparse's own negative-number pattern has no exponent: "--mu -2e-5"
    # stopped with its usage, where "--mu=-2e-5" worked
    spaced = _run(capsys, command, family, *argv, option, value)
    assert spaced == _run(capsys, command, family, *argv, f"{option}={value}")
    assert spaced[0] in (0, 1, 2) and spaced[1]


@pytest.mark.parametrize(
    "argv, plain",
    [
        (("ssvi", "--rho-range", "-5e-1", "5e-1"), ("ssvi", "--rho-range", "-0.5", "0.5")),
        (("extremal", "--q-range", "-9E-1", "-1e-1"), ("extremal", "--q-range", "-0.9", "-0.1")),
        (("symmetric", "--u-range", "-5e-1", "1e0"), ("symmetric", "--u-range", "-0.5", "1.0")),
        (("vanishing-up", "--b-range", "-1e-1", "0.5"), ("vanishing-up", "--b-range", "-0.1", "0.5")),
    ],
)
def test_sample_range_reads_a_spaced_negative_exponent(capsys, argv, plain):
    spaced = _run(capsys, "sample", *argv, "--count", "3")
    assert spaced == _run(capsys, "sample", *plain, "--count", "3")
    assert spaced[1]


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "family", ["vanishing-up", "vanishing-down", "extremal", "symmetric", "ssvi"]
)
def test_sample_closure(capsys, family):
    code, out = _run(
        capsys, "sample", family, "--count", "6", "--seed", "11"
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["samples"]) == 6
    # re-certify every sample through the CLI round trip
    for s in doc["samples"]:
        native = s["native"]
        if family.startswith("vanishing"):
            args = ["certify", family, "--b", str(native["b"]), "--mu",
                    str(native["mu"]), "--sigma", str(native["sigma"])]
        elif family == "extremal":
            args = ["certify", family, "--gamma", str(native["gamma"]), "--q",
                    str(native["q"]), "--sigma", str(native["sigma"])]
        elif family == "symmetric":
            args = ["certify", family, "--gamma", str(native["gamma"]), "--b",
                    str(native["b"]), "--sigma", str(native["sigma"])]
        else:
            args = ["certify", family, "--theta", str(native["theta"]), "--phi",
                    str(native["phi"]), "--rho", str(native["rho"])]
        code, _ = _run(capsys, *args)
        assert code == 0


def test_sample_deterministic(capsys):
    _, out1 = _run(capsys, "sample", "ssvi", "--count", "5", "--seed", "3")
    _, out2 = _run(capsys, "sample", "ssvi", "--count", "5", "--seed", "3")
    assert out1 == out2
    _, out3 = _run(capsys, "sample", "ssvi", "--count", "5", "--seed", "4")
    assert out1 != out3


@pytest.mark.parametrize(
    "argv",
    [
        ("vanishing-up", "--b-range", "0.5", "1.2"),
        ("vanishing-down", "--u-range", "0", "0.5"),
        ("symmetric", "--u-range", "-1.5", "0"),
        ("symmetric", "--t-range", "0.5", "1.5"),
        ("ssvi", "--t-range", "0.5", "1.5"),
        ("ssvi", "--t-range", "0", "0.5"),
        ("symmetric", "--scale-range", "0.5", "0.6"),
        ("extremal", "--gamma-range", "0", "1"),
        ("extremal", "--q-range", "-0.5", "1"),
        ("ssvi", "--rho-range", "-1", "0.5"),
    ],
)
def test_sample_range_outside_the_domain_exits_two(capsys, argv):
    code, out = _run(capsys, "sample", *argv, "--count", "3")
    doc = _strict(out)
    assert code == 2
    assert doc["error"]["type"] == "invalid_params"
    assert argv[1] in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("ssvi", "--t-range", "0.9", "0.1"),
        ("ssvi", "--scale-range", "2", "1"),
        ("ssvi", "--rho-range", "0.5", "-0.5"),
        ("extremal", "--gamma-range", "2", "1"),
        ("extremal", "--q-range", "0.5", "-0.5"),
        ("vanishing-up", "--b-range", "0.9", "0.1"),
        ("symmetric", "--u-range", "1", "0"),
    ],
)
def test_sample_reversed_range_exits_two(capsys, argv):
    code, out = _run(capsys, "sample", *argv, "--count", "2")
    doc = _strict(out)
    assert code == 2
    assert doc["error"]["type"] == "invalid_params"
    assert f"{argv[1]} " in doc["error"]["message"] and "reversed" in doc["error"]["message"]


def test_sample_ssvi_at_the_slope_bound(capsys):
    # t = 1 is the wing-slope bound b*(1+|rho|) = 2, the closed end of the domain
    code, out = _run(capsys, "sample", "ssvi", "--count", "3", "--t-range", "1", "1")
    assert code == 0
    assert len(_strict(out)["samples"]) == 3


def test_sample_at_the_unit_scale(capsys):
    # scale 1 samples the boundary sigma = sigma*, the closed end of the domain
    code, out = _run(capsys, "sample", "symmetric", "--count", "3", "--scale-range", "1", "1")
    assert code == 0
    assert len(_strict(out)["samples"]) == 3


def test_sample_closed_form_failure_exits_three(capsys):
    # u only has to exceed -1; gamma -> -1 cancels in symmetric.sigma_star_closed
    code, out = _run(
        capsys, "sample", "symmetric", "--count", "3", "--u-range", "-0.99999", "-0.99998"
    )
    doc = _strict(out)
    assert code == 3
    assert doc["error"]["type"] == "solver_failure"


@pytest.mark.parametrize("count", ["-1", "-3"])
def test_sample_negative_count_exits_two(capsys, count):
    code, out = _run(capsys, "sample", "ssvi", "--count", count)
    doc = _strict(out)
    assert code == 2
    assert doc["error"]["type"] == "invalid_params"
    assert "--count" in doc["error"]["message"]


def test_sample_zero_count_is_empty(capsys):
    code, out = _run(capsys, "sample", "ssvi", "--count", "0")
    assert code == 0
    assert _strict(out)["samples"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("vanishing-up", "--gamma-range", "5", "6"),
        ("vanishing-down", "--t-range", "0.1", "0.2"),
        ("extremal", "--b-range", "0.2", "0.3"),
        ("symmetric", "--rho-range", "-0.5", "0.5"),
        ("ssvi", "--b-range", "0.2", "0.3"),
    ],
)
def test_sample_refuses_a_range_its_family_does_not_read(capsys, argv):
    code, out = _run(capsys, "sample", *argv, "--count", "1", "--seed", "1")
    doc = _strict(out)
    assert code == 2
    assert doc["error"]["type"] == "invalid_params"
    assert f"{argv[0]} does not read {argv[1]}" in doc["error"]["message"]


# the first draw of `sample FAMILY --count 1 --seed 1` before each sampler's
# ranges moved into the family table, and the family's default ranges
_DEFAULT_SAMPLES = {
    "vanishing-up": ({"b": 0.8603709570607483, "mu": 0.4624106547819935,
                      "sigma": 8.805972927255644},
                     ("--b-range", "0.1", "0.9", "--u-range", "0.05", "0.95")),
    "vanishing-down": ({"b": 0.8603709570607483, "mu": -0.4624106547819935,
                        "sigma": 8.805972927255644},
                       ("--b-range", "0.1", "0.9", "--u-range", "0.05", "0.95")),
    "extremal": ({"gamma": 3.8266229371407734, "q": -0.5693446196485861,
                  "sigma": 1.2279718320549369},
                 ("--gamma-range", "0.5", "4", "--q-range", "-0.8", "0.8")),
    "symmetric": ({"gamma": 68.31033965077076, "b": 1.1227749535825662,
                   "sigma": 0.008956266896209465},
                  ("--u-range", "-0.9", "3", "--t-range", "0.05", "0.95")),
    "ssvi": ({"theta": 0.05164318505075578, "phi": 7.688148004117546,
              "rho": 0.8108346533866836},
             ("--rho-range", "-0.9", "0.9", "--t-range", "0.05", "0.95")),
}


@pytest.mark.parametrize("family", sorted(_DEFAULT_SAMPLES))
def test_sample_default_ranges_are_unchanged(capsys, family):
    expected, ranges = _DEFAULT_SAMPLES[family]
    argv = ("sample", family, "--count", "1", "--seed", "1")
    code, out = _run(capsys, *argv)
    assert code == 0
    native = _strict(out)["samples"][0]["native"]
    for key, value in expected.items():
        assert native[key] == pytest.approx(value, rel=1e-12), key
    # the defaults, passed explicitly, draw the same samples
    assert _run(capsys, *argv, *ranges, "--scale-range", "1", "3") == (0, out)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------
TABLE_HEADERS = {
    "vanishing-domains": "b,subdomain_sigma,sigma_star_at_mu_zero,sigma_star_mid,sigma_star_x099",
    "symmetric-zstar": "gamma,z_at_b0,z_at_bmax",
    "symmetric-zstar-wide": "gamma,z_at_b0,z_at_bmax",
    "symmetric-j1prime": "gamma,z_inflection,j1_slope_at_b2",
    "gamma-admissibility": "u,ratio_gamma_plus,ratio_gamma_minus",
    "ssvi-n-curves": "x,n_rho_0.0,n_rho_0.25,n_rho_0.5,n_rho_0.75,n_rho_0.999",
    "ssvi-gj-vs-b": "rho,b,gj_sigma,subdomain_sigma,sigma_star",
    "ssvi-gj-vs-rho": "b,rho,gj_sigma,subdomain_sigma,sigma_star",
}


@pytest.mark.parametrize("figure", sorted(TABLE_HEADERS))
def test_table_headers_stable(capsys, figure):
    code, out = _run(capsys, "table", figure)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == TABLE_HEADERS[figure]
    assert len(lines) > 10
    assert "," in lines[1] and ";" not in lines[1]  # '.' decimal, ',' separator


def test_table_vanishing_ordering(capsys):
    # explicit sub-domain level dominates every exact threshold column
    _, out = _run(capsys, "table", "vanishing-domains")
    for line in out.strip().splitlines()[1:]:
        b, sub, s0, s1, s2 = map(float, line.split(","))
        assert sub >= max(s0, s1, s2) - 1e-12


def test_table_admissibility_ratios(capsys):
    # the admissible branch always maps back above the curvature zero
    _, out = _run(capsys, "table", "gamma-admissibility")
    for line in out.strip().splitlines()[1:]:
        u, rp, rm = line.split(",")
        assert float(rp) > 1.0
        if rm:
            assert float(rm) < 1.0  # the rejected branch falls below


# ---------------------------------------------------------------------------
# scan-uniqueness
# ---------------------------------------------------------------------------
def test_scan_uniqueness_output(capsys):
    code, out = _run(capsys, "scan-uniqueness", "--rho-steps", "60", "--x-steps", "60")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("min_n = ")
    assert lines[1] == "negative_count = 0"
    assert lines[2] == "There is unicity"


@pytest.mark.parametrize("argv", [("--rho-steps", "0"), ("--x-steps", "-3")])
def test_scan_uniqueness_bad_steps_exit_two(capsys, argv):
    code, out = _run(capsys, "scan-uniqueness", *argv)
    assert code == 2
    doc = _strict(out)
    assert doc["error"]["type"] == "invalid_params"
    assert "steps" in doc["error"]["message"]


# ---------------------------------------------------------------------------
# numpy stays off the closed-form path
# ---------------------------------------------------------------------------
NUMPY_FREE_CALLS = [
    ["certify", "vanishing-up", "--b", "0.5", "--mu", "0.1", "--sigma", "1"],
    ["certify", "vanishing-down", "--b", "0.5", "--mu", "-0.1", "--sigma", "0.5"],
    ["certify", "extremal", "--gamma", "1", "--q", "0.3", "--sigma", "2"],
    ["certify", "ssvi", "--theta", "1", "--phi", "1", "--rho", "-0.3"],
    ["bound", "ssvi", "--b", "0.5", "--rho", "0.3", "--json"],
    ["table", "ssvi-gj-vs-b"],
]
ORACLE_CALL = ["certify", "symmetric", "--gamma", "0.3", "--b", "1.2", "--sigma", "2", "--oracle"]


def test_closed_form_calls_import_no_numpy():
    # each call runs as python -m smile_domain, in one interpreter, with the
    # call that evaluates the oracle's grids last: only that one loads numpy
    script = (
        "import contextlib, io, json, runpy, sys\n"
        "out = []\n"
        f"for argv in {NUMPY_FREE_CALLS + [ORACLE_CALL]!r}:\n"
        "    sys.argv = ['smile_domain', *argv]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            runpy.run_module('smile_domain', run_name='__main__', alter_sys=True)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    numpy = any(m.split('.')[0] == 'numpy' for m in sys.modules)\n"
        "    out.append({'code': code, 'numpy': numpy})\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [r["code"] for r in out] == [0] * len(out)
    assert [r["numpy"] for r in out] == [False] * len(NUMPY_FREE_CALLS) + [True]
