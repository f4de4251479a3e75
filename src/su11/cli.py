"""Command-line front end.

Subcommands: elem, character, ortho, tensor, verify.  Records go to stdout
as line-delimited JSON (default) or CSV with a header row; diagnostics go to
stderr.  Exit codes: 0 success, 1 failed verification, 2 usage error,
3 domain error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .characters import ELLIPTIC, character, character_compact
from .errors import Su11Error
from .group import GroupElement, from_cartan
from .halfint import RepLabel, as_rep_label
from .orthogonality import OrthoRequest, monte_carlo_haar, orthogonality_integral
from .repmatrix import matrix_element
from .tensor import (
    abel_character_sum_closed_form,
    character_product,
    decompose,
    multiplicity,
)
from .verify import DEFAULTS, SUITE_NAMES, run_suite

_CSV_COLUMNS = ("command", "inputs", "value_re", "value_im", "expected_re", "abs_error")


def _record(command: str, inputs: dict, value, expected=None) -> dict:
    """One output record; with an expected value it also carries the error."""
    value = complex(value)
    rec = {"command": command, "inputs": inputs,
           "value_re": value.real, "value_im": value.imag}
    if expected is not None:
        rec["expected_re"] = complex(expected).real
        rec["abs_error"] = abs(value - expected)
    return rec


def _emit(records, fmt: str, stream) -> None:
    if fmt == "json":
        for rec in records:
            stream.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                rec["command"],
                json.dumps(rec["inputs"], sort_keys=True),
                *(repr(rec[key]) if key in rec else "" for key in _CSV_COLUMNS[2:]),
            ])


def _eta_arg(text: str) -> RepLabel:
    try:
        return as_rep_label(text)
    except Su11Error as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _range_arg(text: str) -> range:
    try:
        lo, sep, hi = text.partition("..")
        values = range(int(lo), int(hi if sep else lo) + 1)
        if not values or values.start < 0:
            raise ValueError(text)
        return values
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative index or lo..hi range, got {text!r}"
        ) from exc


def _int_at_least(low: int):
    """An argparse type: an integer >= low, else a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return integer


def _cmd_elem(args) -> int:
    g = from_cartan(args.tau, args.phi, args.psi)

    def records():  # one at a time, so memory stays flat however wide the ranges
        for n in args.n:
            for np_ in args.np:
                value = matrix_element(args.eta, n, np_, g)
                yield _record(
                    "elem",
                    {"eta": str(args.eta), "n": n, "np": np_,
                     "tau": args.tau, "phi": args.phi, "psi": args.psi},
                    value,
                )

    _emit(records(), args.format, sys.stdout)
    return 0


def _cmd_character(args) -> int:
    if args.theta is not None:
        value = character_compact(args.eta, args.theta)
        inputs = {"eta": str(args.eta), "theta": args.theta, "regime": ELLIPTIC}
    else:
        # An element of the class with this Re(alpha); an elliptic one takes
        # Im(alpha) > 0, as h(theta) does for theta in (0, 2*pi).
        a = args.alpha_re
        g = GroupElement(complex(a, math.sqrt(max(0.0, 1.0 - a * a))),
                         math.sqrt(max(0.0, a * a - 1.0)))
        result = character(args.eta, g)
        value = result.value
        inputs = {"eta": str(args.eta), "alpha_re": a, "regime": result.regime}
    _emit([_record("character", inputs, value)], args.format, sys.stdout)
    return 0


def _cmd_ortho(args) -> int:
    req = OrthoRequest(args.eta1, args.eta2, args.m, args.mp, args.n, args.np)
    res = orthogonality_integral(req)
    inputs = {"eta1": str(args.eta1), "eta2": str(args.eta2),
              "m": args.m, "mp": args.mp, "n": args.n, "np": args.np,
              "angular_selected": res.angular_selected, "method": "analytic"}
    records = [_record("ortho", inputs, res.value, res.expected)]
    if args.mc:
        est = monte_carlo_haar(req, args.samples, args.seed)
        mc_inputs = dict(inputs)
        mc_inputs.update(method="monte_carlo", samples=args.samples,
                         seed=args.seed, stderr=est.stderr)
        records.append(_record("ortho", mc_inputs, est.value, res.expected))
    _emit(records, args.format, sys.stdout)
    return 0


def _cmd_tensor(args) -> int:
    records = []
    if args.eta3 is not None:
        mult = multiplicity(args.eta1, args.eta2, args.eta3)
        records.append(_record(
            "tensor",
            {"eta1": str(args.eta1), "eta2": str(args.eta2), "eta3": str(args.eta3)},
            float(mult),
        ))
    elif args.certify:
        target = character_product(args.eta1, args.eta2, args.theta)
        approx = abel_character_sum_closed_form(args.eta1, args.eta2, args.theta, args.r)
        records.append(_record(
            "tensor",
            {"eta1": str(args.eta1), "eta2": str(args.eta2),
             "theta": args.theta, "r": args.r, "check": "abel_residual"},
            approx, target,
        ))
    else:
        for term in decompose(args.eta1, args.eta2, args.nmax).terms:
            records.append(_record(
                "tensor",
                {"eta1": str(args.eta1), "eta2": str(args.eta2),
                 "eta3": str(term.eta3), "nmax": args.nmax},
                float(term.multiplicity),
            ))
    _emit(records, args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    params = {"seed": args.seed, "samples": args.samples, "max_index": args.max_index,
              "size": args.size, "k": args.k}
    results = run_suite(args.suite, **params)
    records = []
    all_passed = True
    for res in results:
        tol = args.tol if args.tol is not None else res.tol
        passed = res.measured <= tol
        all_passed &= passed
        inputs = {"suite": res.suite, "check": res.name, "tol": tol, "passed": passed,
                  **res.inputs}
        records.append(_record("verify", inputs, res.measured, 0.0))
    _emit(records, args.format, sys.stdout)
    if not all_passed:
        print("verify: one or more checks failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su11",
        description="Holomorphic discrete series of SU(1,1): matrix elements, "
                    "characters, orthogonality and tensor products.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("elem", help="matrix elements in the chart parametrization")
    p.add_argument("--eta", type=_eta_arg, required=True)
    p.add_argument("--n", type=_range_arg, default=range(1))
    p.add_argument("--np", type=_range_arg, default=range(1))
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--psi", type=float, default=0.0)
    add_format(p)
    p.set_defaults(func=_cmd_elem)

    p = sub.add_parser("character", help="closed-form characters")
    p.add_argument("--eta", type=_eta_arg, required=True)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--theta", type=float)
    point.add_argument("--alpha-re", type=float, dest="alpha_re")
    add_format(p)
    p.set_defaults(func=_cmd_character)

    p = sub.add_parser("ortho", help="orthogonality integrals")
    p.add_argument("--eta1", type=_eta_arg, required=True)
    p.add_argument("--eta2", type=_eta_arg, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mp", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--np", type=int, required=True)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--samples", type=_int_at_least(1), default=200_000)
    p.add_argument("--seed", type=int, default=42)
    add_format(p)
    p.set_defaults(func=_cmd_ortho)

    p = sub.add_parser("tensor", help="tensor-product decomposition")
    p.add_argument("--eta1", type=_eta_arg, required=True)
    p.add_argument("--eta2", type=_eta_arg, required=True)
    p.add_argument("--eta3", type=_eta_arg, default=None)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--r", type=float, default=0.99)
    add_format(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*SUITE_NAMES, "all"), default="all")
    p.add_argument("--max-index", type=_int_at_least(0), default=DEFAULTS["max_index"],
                   dest="max_index")
    p.add_argument("--samples", type=_int_at_least(0), default=DEFAULTS["samples"])
    p.add_argument("--seed", type=_int_at_least(0), default=DEFAULTS["seed"])
    p.add_argument("--size", type=_int_at_least(1), default=DEFAULTS["size"])
    p.add_argument("--k", type=_int_at_least(1), default=DEFAULTS["k"])
    p.add_argument("--tol", type=float, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Su11Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
