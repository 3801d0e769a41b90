"""Command-line front end: classify, construct, verify, hilbert, min.

All numbers in the JSON output are exact: rationals are serialized as
"p/q" strings (plain integer strings when the denominator is 1), and
output key order is fixed, so results are byte-stable for fixed inputs.

Exit codes: 0 success, 1 malformed input or a number whose primality
would have to be proved at or above numth.PRIMALITY_CAP, 2 no construction
exists or was found, 3 verification failed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .classify import NoPlanFound, construct, plan_level
from .lattices import (
    IdealLattice,
    ModularityCertificate,
    minimum_and_kissing,
    verify_arakelov_modular,
)
from .numth import (
    REAL_PLACE,
    NumberTooLarge,
    hilbert_places,
    hilbert_symbol,
    is_prime,
)
from .orders import (
    CATALOG_BASES,
    PRESET_ALIASES,
    NotARing,
    NotFullRank,
    NotIntegral,
    NotTwoSided,
    TwoSidedIdeal,
    ZLat4,
    is_maximal,
    order_from_basis,
)
from .quaternion import QElem, QuaternionAlgebra

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_PLAN = 2
EXIT_INVALID = 3


class _InputError(Exception):
    """Raised for malformed CLI input; the message names the failing field."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Values like "-1,-1" or "-1/2,0,1,0" must parse as option values,
        # not as option names.
        self._negative_number_matcher = re.compile(r"^-\d[\d,/.-]*$")

    def error(self, message):  # argparse default exits 2; input errors are 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _frac_str(x: Fraction) -> str:
    return str(x)


def _parse_frac(text: str, field: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _InputError(f"{field}: {text!r} is not a rational p/q") from exc


def _parse_coords(text: str, field: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise _InputError(f"{field}: expected 4 comma-separated rationals")
    return tuple(_parse_frac(p.strip(), field) for p in parts)


def _parse_algebra(text: str) -> QuaternionAlgebra:
    parts = text.split(",")
    if len(parts) != 2:
        raise _InputError("--algebra: expected two integers a,b")
    try:
        a, b = int(parts[0]), int(parts[1])
        return QuaternionAlgebra(a, b)
    except ValueError as exc:
        raise _InputError(f"--algebra: {exc}") from exc


def _parse_matrix_file(path: str, field: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (line.strip() for line in fh) if ln]
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"{field}: cannot read {path}: {exc}") from exc
    if len(lines) != 4:
        raise _InputError(f"{field}: expected 4 nonempty lines in {path}")
    rows = []
    for ln in lines:
        entries = ln.split()
        if len(entries) != 4:
            raise _InputError(f"{field}: expected 4 entries per line in {path}")
        rows.append(tuple(_parse_frac(e, field) for e in entries))
    return tuple(rows)


def _basis_strs(basis) -> list[list[str]]:
    return [[_frac_str(x) for x in row] for row in basis]


def _gram_json(gram) -> list[list]:
    return [
        [int(x) if x.denominator == 1 else _frac_str(x) for x in row]
        for row in gram
    ]


def _coords_strs(x: QElem) -> list[str]:
    return [_frac_str(c) for c in x.coords()]


def _certificate_json(cert: ModularityCertificate) -> dict:
    return {
        "alpha": _frac_str(cert.alpha),
        "beta": _coords_strs(cert.beta),
        "beta_prime": _coords_strs(cert.beta_prime),
        "checks": cert.checks(),
        "ell": cert.ell,
        "t": _coords_strs(cert.t),
        "valid": cert.valid,
    }


def _lattice_record(lat: IdealLattice, cert: ModularityCertificate) -> dict:
    mn, kissing = lat.minimum_and_kissing()
    alg = lat.order.algebra
    return {
        "a": alg.a,
        "b": alg.b,
        "alpha": _frac_str(lat.alpha),
        "certificate": _certificate_json(cert),
        "det": _frac_str(lat.discriminant),
        "ell": cert.ell,
        "even": lat.is_even(),
        "gram": _gram_json(lat.gram),
        "ideal_basis": _basis_strs(lat.ideal.lattice.basis),
        "kissing": kissing,
        "min": _frac_str(mn),
        "order_basis": _basis_strs(lat.order.lattice.basis),
    }


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def cmd_classify(args) -> int:
    if args.ell < 2:
        raise _InputError("--ell: level must be at least 2")
    try:
        plan = plan_level(args.ell)
    except NoPlanFound as exc:
        print(f"no construction: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN
    _emit(
        {
            "a": plan.algebra.a,
            "b": plan.algebra.b,
            "case": plan.case,
            "ell": plan.ell,
            "ell1": plan.ell1,
            "ell2": plan.ell2,
            "q": plan.q,
        }
    )
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.ell < 2:
        raise _InputError("--ell: level must be at least 2")
    try:
        lat, cert = construct(args.ell)
    except NoPlanFound as exc:
        print(f"no construction: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN
    record = _lattice_record(lat, cert)
    text = json.dumps(record, sort_keys=True, indent=2)
    print(text)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _InputError(f"--json: cannot write {args.json}: {exc}") from exc
    return EXIT_OK


def _resolve_order(args, algebra):
    name = PRESET_ALIASES.get(args.order, args.order)
    if name in CATALOG_BASES:
        rows = CATALOG_BASES[name]
    else:
        rows = _parse_matrix_file(args.order, "--order")
    try:
        order = order_from_basis(algebra, rows)
    except (NotARing, NotIntegral, NotFullRank) as exc:
        raise _InputError(f"--order: not a valid order: {exc}") from exc
    if not is_maximal(order):
        raise _InputError(
            f"--order: not maximal (reduced discriminant {order.reduced_disc}, "
            f"algebra has {algebra.reduced_discriminant})"
        )
    return order


def cmd_verify(args) -> int:
    algebra = _parse_algebra(args.algebra)
    order = _resolve_order(args, algebra)
    t = algebra.element(*_parse_coords(args.t, "--t"))
    if t.nrd() == 0:
        raise _InputError("--t: displacement must be invertible")
    if args.ideal:
        ideal_rows = _parse_matrix_file(args.ideal, "--ideal")
    else:
        ideal_rows = order.lattice.basis
    try:
        ilat = ZLat4.from_rows(algebra, ideal_rows)
        j_lat = ilat if t == algebra.one else ilat.right_mul(t.inverse())
        ideal = TwoSidedIdeal.from_parts(order, j_lat, t)
    except (NotTwoSided, NotFullRank) as exc:
        raise _InputError(f"--ideal: {exc}") from exc
    alpha = _parse_frac(args.alpha, "--alpha")
    if alpha <= 0:
        raise _InputError("--alpha: must be positive")
    beta = algebra.element(*_parse_coords(args.beta, "--beta"))
    if args.ell < 1:
        raise _InputError("--ell: level must be positive")
    cert = verify_arakelov_modular(IdealLattice(ideal, alpha), beta, args.ell)
    _emit(_certificate_json(cert))
    return EXIT_OK if cert.valid else EXIT_INVALID


def cmd_hilbert(args) -> int:
    if args.a == 0 or args.b == 0:
        raise _InputError("--a/--b: arguments must be nonzero")
    if args.p is not None:
        if args.p != -1 and not is_prime(args.p):
            raise _InputError("--p: expected a prime or -1 for the real place")
        symbol = hilbert_symbol(args.a, args.b, args.p)
        _emit({"a": args.a, "b": args.b, "p": args.p, "symbol": symbol})
        return EXIT_OK
    symbols = [
        ["inf" if p == REAL_PLACE else str(p), hilbert_symbol(args.a, args.b, p)]
        for p in hilbert_places(args.a, args.b)
    ]
    product = 1
    for _, s in symbols:
        product *= s
    _emit({"a": args.a, "b": args.b, "product": product, "symbols": symbols})
    return EXIT_OK


def cmd_min(args) -> int:
    gram = _parse_matrix_file(args.gram, "--gram")
    for k in range(4):
        for l in range(4):
            if gram[k][l] != gram[l][k]:
                raise _InputError("--gram: matrix must be symmetric")
    try:
        mn, kissing = minimum_and_kissing(gram)
    except ValueError as exc:
        raise _InputError(f"--gram: {exc}") from exc
    _emit({"kissing": kissing, "min": _frac_str(mn)})
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="amlat",
        description="Exact modular ideal lattices over definite rational "
        "quaternion algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="pick the algebra and case for a level")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct", help="build and certify a level-ell lattice")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--json", help="also write the record to this path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a modularity certificate")
    p.add_argument("--algebra", required=True, metavar="a,b")
    p.add_argument(
        "--order",
        required=True,
        help="preset name (%s) or a 4x4 basis file"
        % ", ".join(sorted(set(CATALOG_BASES) | set(PRESET_ALIASES))),
    )
    p.add_argument("--ideal", help="4x4 basis file for the ideal (default: the order)")
    p.add_argument("--alpha", default="1", metavar="p/q")
    p.add_argument("--beta", required=True, metavar="x0,x1,x2,x3")
    p.add_argument("--t", default="1,0,0,0", metavar="x0,x1,x2,x3")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hilbert", help="Hilbert symbols and the product formula")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, help="a prime, or -1 for the real place")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("min", help="minimum and kissing number of a Gram file")
    p.add_argument("--gram", required=True, help="4 lines of 4 exact rationals")
    p.set_defaults(func=cmd_min)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumberTooLarge as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
