"""Command-line front end: exact values in, deterministic JSON tables out.

Machine-readable JSON goes to stdout; a one-line human summary goes to
stderr.  Exit codes: 0 for ok or a vanishing result, 1 for usage or
parse errors, 2 for unsupported queries, 3 for violated hypotheses, 4 when
`gw verify` finds a checked identity false, 5 when an internal invariant
fails (a defect of the engine, reported in one line); a stdout closed early
(`gw ... | head`) leaves the exit code as it was.  `gw ring` takes at most
one of --cup, --dual and --quantum; `gw solve` takes only `relative`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement

from . import battery, degeneration, partitions, quantum, relative, ring
from .errors import HypothesisViolated, Inapplicable, InternalError, UnsupportedQuery

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSUPPORTED = 2
EXIT_HYPOTHESIS = 3
EXIT_UNEQUAL = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _exact(value) -> str:
    """str(value) of an int or Fraction, at any number of digits.

    str() of an int past Python's int-to-text limit (4300 digits by default)
    raises ValueError; str() of a Decimal does not.  The limit is
    process-wide and main() runs inside other programs, so it is left alone.
    """
    value = Fraction(value)
    text = str(Decimal(value.numerator))
    if value.denominator == 1:
        return text
    return f"{text}/{Decimal(value.denominator)}"


def _report_json(report: degeneration.ComparisonReport, include_terms: bool) -> dict:
    data = {
        "status": report.status,
        "lhs": None if report.lhs is None else _exact(report.lhs),
        "rhs": None if report.rhs is None else _exact(report.rhs),
        "equal": report.equal,
    }
    if include_terms:
        data["terms"] = [
            {
                "partition": partitions.partition_to_text(mu),
                "delta": partitions.delta_factor(mu),
                "value": _exact(v),
            }
            for mu, _, v in report.terms
        ]
    if report.detail:
        data["detail"] = report.detail
    return data


def _emit(payload: dict, summary: str) -> None:
    try:
        print(json.dumps(payload, sort_keys=True), flush=True)
    except BrokenPipeError:
        # Closed by its reader: send the rest, and the flush at exit, to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    print(summary, file=sys.stderr)


def _parse_insertions(space: ring.Space, text: str) -> list[ring.RingElement]:
    if not text:
        return []
    return [ring.by_label(space, chunk) for chunk in text.split(",")]


def _integer(text: str) -> int | None:
    try:
        return ring.parse_integer(text)
    except ValueError:
        return None


def _int_option(text: str) -> int:
    """The type of an integer option, refusing what ``ring.parse_integer``
    refuses, with argparse's message for a bad int."""
    value = _integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _parse_bundle(text: str) -> relative.BundleSpec:
    """Bundle descriptors look like "p1:c1=1" or "pt:c1=0"."""
    head, _, tail = text.rpartition(":")
    c1 = _integer(tail[3:]) if tail.startswith("c1=") else None
    if not head or c1 is None:
        raise ValueError(f"bundle descriptor {text!r} must be '<space>:c1=<int>'")
    return relative.BundleSpec(ring.make_space(head), c1)


def _parse_rel_insertion(space: ring.Space, chunk: str):
    """Relative insertions: "zs:<label>" or "pb:<label>", with an optional
    "@tau<d>" descendent suffix on zero-section insertions."""
    chunk = chunk.strip()
    psi = 0
    if "@tau" in chunk:
        chunk, _, tau = chunk.partition("@tau")
        d = _integer(tau)
        if d is None:
            raise ValueError(f"descendent suffix '@tau{tau}' must be '@tau<d>'")
        if d < 1:
            raise ValueError("descendent index must be at least 1")
        psi = d - 1
    kind, _, label = chunk.partition(":")
    if kind == "zs":
        return relative.ZeroSection(ring.by_label(space, label), psi)
    if kind == "pb":
        if psi:
            raise ValueError("descendents only attach to zero-section insertions")
        return relative.Pullback(ring.by_label(space, label))
    raise ValueError(f"relative insertion {chunk!r} needs a zs: or pb: prefix")


def _cmd_abs(args) -> int:
    space = ring.make_space(args.space)
    insertions = _parse_insertions(space, args.insertions)
    value = _exact(quantum.gw_invariant(space, args.degree, insertions))
    _emit(
        {"status": "ok", "value": value},
        f"<{args.insertions}>_{args.degree} on {space} = {value}",
    )
    return EXIT_OK


def _cmd_nd(args) -> int:
    if args.max < 1:
        raise ValueError("--max must be at least 1")
    table = {str(d): _exact(quantum.wdvv_nd(d)) for d in range(1, args.max + 1)}
    _emit(table, f"plane-curve counts through 3d-1 points, d <= {args.max}")
    return EXIT_OK


def _cmd_ring(args) -> int:
    space = ring.make_space(args.space)
    if args.cup is not None:
        labels = args.cup.split(",")
        if len(labels) != 2:
            raise ValueError(f"--cup expects two class labels '<a>,<b>', got {args.cup!r}")
        a_text, b_text = labels
        product = ring.cup(ring.by_label(space, a_text), ring.by_label(space, b_text))
        payload = {"status": "ok", "value": ring.element_to_json(product)}
        summary = f"{a_text} cup {b_text} = {product}"
    elif args.dual:
        duals = ring.dual_basis(space)
        payload = {bc.label: duals[bc.index].label for bc in ring.basis(space)}
        summary = f"dual basis of {space}"
    elif args.quantum:
        parts = ring.rectangle_partitions(*space.box)
        labels = [bc.label for bc in ring.basis(space)]
        payload = {}
        for i, j in combinations_with_replacement(range(len(parts)), 2):
            product = quantum.rim_hook_product(parts[i], parts[j], space)
            payload[f"{labels[i]} * {labels[j]}"] = {
                (f"q^{power}*" if power else "") + labels[idx]: _exact(coeff)
                for power, elem in product.terms
                for idx, coeff in elem.coeffs
            }
        summary = f"quantum products on {space}"
    else:
        payload = {bc.label: bc.real_degree for bc in ring.basis(space)}
        summary = f"basis of {space} with real degrees"
    _emit(payload, summary)
    return EXIT_OK


def _cmd_rel(args) -> int:
    bundle = _parse_bundle(args.bundle)
    insertions = [
        _parse_rel_insertion(bundle.base, chunk)
        for chunk in (args.insertions.split(",") if args.insertions else [])
    ]
    text = args.cls.strip().upper()
    count = _integer(text[:-1])
    if count is None or text[-1:] not in ("F", "A"):
        raise ValueError(
            f"--class expects <s>F (fiber) or <d>A (section), got {args.cls!r}"
        )
    if text.endswith("F"):
        try:
            mu = partitions.parse_partition(bundle.base, args.partition)
        except ValueError as exc:
            raise ValueError(
                f"--partition expects '(<m>,<label>)' pairs joined by '+': {exc}"
            ) from exc
        query = relative.make_fiber_query(bundle, count, insertions, mu)
    else:
        if args.partition.strip() not in ("", "empty", "()"):
            raise ValueError("section classes only support the empty partition")
        query = relative.make_section_query(bundle, count, insertions)
    value, reason = relative.relative_invariant_with_reason(query)
    if reason is not None:
        _emit(
            {"status": "vanishes", "value": "0", "reason": reason},
            f"vanishes: {reason}",
        )
        return EXIT_OK
    text = _exact(value)
    _emit({"status": "ok", "value": text}, f"relative invariant = {text}")
    return EXIT_OK


def _refuse_unread(args, shape: str, *reads: str) -> None:
    """The options of `gw verify` default to absent from `args`, so any
    option present that `shape` does not read was given by the user."""
    unread = sorted(vars(args).keys() - {"command", "fn", "what", *reads})
    if unread:
        flag = "--" + unread[0].replace("_", "-")
        raise ValueError(f"verify {shape} does not read {flag}")


def _verdict(reports) -> int:
    """2 if any comparison was refused, else 4 if any identity is false."""
    if any(r.status != "ok" for r in reports):
        return EXIT_UNSUPPORTED
    return EXIT_OK if all(r.equal for r in reports) else EXIT_UNEQUAL


def _cmd_verify(args) -> int:
    if args.what == "battery":
        shape, reads = "battery", ()
    elif not hasattr(args, "testbed"):
        raise ValueError("verify comparison needs --testbed")
    elif getattr(args, "alphas", "") or getattr(args, "betas", ""):
        shape = "comparison --alphas/--betas"
        reads = ("testbed", "degree", "alphas", "betas", "verbose")
    elif args.testbed == "p1-pt":
        shape, reads = "comparison on p1-pt", ("testbed", "points", "verbose")
    else:
        shape, reads = "comparison on p2-line", ("testbed", "max_degree", "verbose")
    _refuse_unread(args, shape, *reads)
    if shape == "battery":
        report = battery.report()
        _emit(report, f"verification battery: all_ok={report['all_ok']}")
        return EXIT_OK if report["all_ok"] else EXIT_UNEQUAL
    cut = degeneration.testbed_cut(args.testbed)
    z = cut.divisor.divisor
    x = cut.divisor.ambient
    verbose = getattr(args, "verbose", False)
    if shape == "comparison --alphas/--betas":
        alphas = _parse_insertions(x, getattr(args, "alphas", ""))
        betas = _parse_insertions(z, getattr(args, "betas", ""))
        degree = getattr(args, "degree", 1)
        report = degeneration.verify_comparison(cut, degree, alphas, betas)
        payload = _report_json(report, verbose)
        _emit(payload, f"lhs={payload['lhs']} rhs={payload['rhs']} equal={report.equal}")
        return _verdict([report])
    if shape == "comparison on p1-pt":
        m = getattr(args, "points", 3)
        if m < 2:
            raise ValueError("--points must be at least 2")
        alphas = [ring.point_class(x)] * (m - 1)
        report = degeneration.verify_comparison(cut, 1, alphas, [ring.unit(z)])
        payload = _report_json(report, verbose)
        del payload["status"]
        _emit(payload, f"{m}-point identity on the line: equal={report.equal}")
        return _verdict([report])
    max_degree = getattr(args, "max_degree", 1)
    if max_degree < 1:
        raise ValueError("--max-degree must be at least 1")
    reports = [
        degeneration.verify_comparison(cut, d, alphas, betas)
        for d, alphas, betas in battery.comparison_cases(cut, max_degree)
    ]
    ok = all(r.status == "ok" for r in reports)
    payload = {
        "testbed": args.testbed,
        "equal": all(r.equal for r in reports if r.equal is not None) and ok,
        "cases": [_report_json(r, verbose) for r in reports],
    }
    _emit(payload, f"{len(reports)} comparison cases, equal={payload['equal']}")
    return _verdict(reports)


def _cmd_solve(args) -> int:
    cut = degeneration.testbed_cut(args.testbed)
    z = cut.divisor.divisor
    x = cut.divisor.ambient
    alphas = _parse_insertions(x, args.alphas)
    betas = _parse_insertions(z, args.betas)
    table = degeneration.solve_relative(cut, args.degree, alphas, betas)
    rows = sorted(
        (partitions.partition_to_text(mu), _exact(v)) for mu, v in table.items()
    )
    _emit(
        {"status": "ok", "table": [{"partition": p, "value": v} for p, v in rows]},
        f"solved {len(rows)} relative invariants",
    )
    return EXIT_OK


def _cmd_lift(args) -> int:
    cut = degeneration.testbed_cut(args.testbed)
    result = degeneration.rc_lift(cut, args.degree, (), args.k, ())
    payload = {
        "status": "ok",
        "stage": result.stage,
        "value": _exact(result.value),
        "query": {
            "space": str(result.query.space),
            "degree": result.query.degree,
            "insertions": [str(i) for i in result.query.insertions],
        },
    }
    _emit(payload, f"lifted witness ({result.stage}) with value {payload['value']}")
    return EXIT_OK


def _cmd_rc(args) -> int:
    space = ring.make_space(args.space)
    witness = quantum.rc_certificate(space, args.k, args.max_degree)
    if witness is None:
        _emit(
            {"status": "none", "k": args.k, "max_degree": args.max_degree},
            "no certificate found in the search range",
        )
        return EXIT_OK
    payload = {
        "status": "ok",
        "degree": witness.query.degree,
        "insertions": [str(i) for i in witness.query.insertions],
        "value": _exact(witness.value),
    }
    _emit(payload, f"certificate in degree {witness.query.degree}: {payload['value']}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="gw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_abs = sub.add_parser("abs", help="absolute invariant")
    p_abs.add_argument("--space", required=True)
    p_abs.add_argument("--degree", type=_int_option, required=True)
    p_abs.add_argument("--insertions", default="")
    p_abs.set_defaults(fn=_cmd_abs)

    p_nd = sub.add_parser("nd", help="plane-curve count table")
    p_nd.add_argument("--max", type=_int_option, required=True)
    p_nd.set_defaults(fn=_cmd_nd)

    p_ring = sub.add_parser("ring", help="basis, cup products, duals")
    p_ring.add_argument("--space", required=True)
    mode = p_ring.add_mutually_exclusive_group()
    mode.add_argument("--cup")
    mode.add_argument("--dual", action="store_true")
    mode.add_argument("--quantum", action="store_true")
    p_ring.set_defaults(fn=_cmd_ring)

    p_rel = sub.add_parser("rel", help="relative invariant of a bundle")
    p_rel.add_argument("--bundle", required=True)
    p_rel.add_argument("--class", dest="cls", required=True)
    p_rel.add_argument("--partition", default="")
    p_rel.add_argument("--insertions", default="")
    p_rel.set_defaults(fn=_cmd_rel)

    p_verify = sub.add_parser("verify", help="verify identities on a testbed")
    p_verify.add_argument("what", choices=("comparison", "battery"))
    absent = {"default": argparse.SUPPRESS}
    p_verify.add_argument("--testbed", **absent)
    p_verify.add_argument("--points", type=_int_option, **absent)
    p_verify.add_argument("--max-degree", type=_int_option, **absent)
    p_verify.add_argument("--degree", type=_int_option, **absent)
    p_verify.add_argument("--alphas", **absent)
    p_verify.add_argument("--betas", **absent)
    p_verify.add_argument("--verbose", action="store_true", **absent)
    p_verify.set_defaults(fn=_cmd_verify)

    p_solve = sub.add_parser("solve", help="solve for relative invariants")
    p_solve.add_argument("what", choices=("relative",))
    p_solve.add_argument("--testbed", required=True)
    p_solve.add_argument("--degree", type=_int_option, default=1)
    p_solve.add_argument("--alphas", default="")
    p_solve.add_argument("--betas", required=True)
    p_solve.set_defaults(fn=_cmd_solve)

    p_lift = sub.add_parser("lift", help="divisor-to-ambient witness lift")
    p_lift.add_argument("--testbed", required=True)
    p_lift.add_argument("--degree", type=_int_option, default=1)
    p_lift.add_argument("--k", type=_int_option, required=True)
    p_lift.set_defaults(fn=_cmd_lift)

    p_rc = sub.add_parser("rc", help="point-constrained certificate search")
    p_rc.add_argument("--space", required=True)
    p_rc.add_argument("--k", type=_int_option, required=True)
    p_rc.add_argument("--max-degree", type=_int_option, default=2)
    p_rc.set_defaults(fn=_cmd_rc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (HypothesisViolated, Inapplicable) as exc:
        _emit({"status": "hypothesis-violated", "reason": str(exc)}, f"refused: {exc}")
        return EXIT_HYPOTHESIS
    except UnsupportedQuery as exc:
        _emit({"status": "unsupported", "reason": str(exc)}, f"unsupported: {exc}")
        return EXIT_UNSUPPORTED
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
