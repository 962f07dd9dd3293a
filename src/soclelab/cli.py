"""Command-line interface.

Subcommands: gb, resolve, socle, canonical, fedder, gauge, scan-powers,
scan-frobenius, criterion, lemma37.  Exit codes: 0 success, 2 when a
scan's mathematical hypothesis check refuses to run, 1 on any other
error (including bad usage and parse errors).
"""

import argparse
import functools
import sys

from .errors import AlgebraError, DomainError, HypothesisError, InputSyntaxError
from .frobenius import fedder_module, gauge_scan
from .inputfile import parse_input_file
from .localcoh import canonical_ideal, endomorphism_check, socle_report
from .modules import quotient_module
from .poly import format_polynomial
from .report import (
    SCHEMA,
    fmt,
    powers_chart_svg,
    summary_to_json,
    summary_to_strings,
    to_csv,
    to_json,
)
from .resolutions import minimal_free_resolution
from .scans import ScanRow, _oracle_spot_check, criterion_check, lemma37_scan, scan_powers


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise AlgebraError(f"usage error: {message}")


def build_parser():
    parser = _Parser(prog="soclelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ideal=False, tmax=False, emax=False, fmt_out=True, svg=False,
               oracle=False, trunc=False):
        p.add_argument("input", help="ring/ideal declaration file")
        if ideal:
            p.add_argument("--ideal", help="name of a declared ideal")
        if tmax:
            p.add_argument("--t-max", type=int, default=1, dest="t_max")
        if emax:
            p.add_argument("--e-max", type=int, default=1, dest="e_max")
        if fmt_out:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--out", help="write the report here instead of stdout")
        if svg:
            p.add_argument("--svg", help="also write an SVG chart here")
        if oracle:
            p.add_argument("--oracle", action="store_true",
                           help="cross-check values against the Koszul-limit oracle")
        if trunc:
            p.add_argument("--trunc", type=int, default=None,
                           help="truncation depth for the residue-field resolution")

    common(sub.add_parser("gb", help="reduced Groebner basis"), ideal=True)
    common(sub.add_parser("resolve", help="minimal free resolution Betti table"),
           ideal=True)
    common(sub.add_parser("socle", help="socle/end degrees of local cohomology"),
           ideal=True, oracle=True)
    common(sub.add_parser("canonical", help="canonical module and canonical ideal"))
    common(sub.add_parser("fedder", help="Fedder colon module degrees"), emax=True)
    common(sub.add_parser("gauge", help="gauge degrees and boundedness scan"),
           emax=True)
    common(sub.add_parser("scan-powers", help="socle degrees along ordinary powers"),
           ideal=True, tmax=True, svg=True, oracle=True)
    common(sub.add_parser("scan-frobenius",
                          help="canonical ideal plus gauge scan along Frobenius powers"),
           emax=True, svg=True)
    common(sub.add_parser("criterion", help="spectral-sequence criterion check"),
           ideal=True, tmax=True, trunc=True)
    common(sub.add_parser("lemma37", help="paired socle sequences for I^t and R/I^t"),
           ideal=True, tmax=True)
    return parser


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, kind, rows, summary=None, lines=()):
    """Emit the rows as JSON with the summary, or as CSV with comment lines."""
    if args.format == "json":
        _emit(args, to_json(kind, rows, summary=summary))
    else:
        _emit(args, to_csv(kind, rows, summary_lines=lines))


def _need_ideal(args, ideals):
    name = getattr(args, "ideal", None)
    if name is None:
        raise AlgebraError("this subcommand needs --ideal NAME")
    if name not in ideals:
        raise AlgebraError(f"no ideal named {name!r} in the input file")
    return ideals[name]


def _module_of(ring, args, ideals):
    name = getattr(args, "ideal", None)
    if name is None:
        return quotient_module(ring, []), "R"
    ideal = _need_ideal(args, ideals)
    return quotient_module(ring, list(ideal.generators)), f"R/{name}"


def cmd_gb(args, ring, ideals):
    ideal = _need_ideal(args, ideals)
    rows = [
        (k, g.degree(), format_polynomial(g))
        for k, g in enumerate(ideal.groebner())
    ]
    _report(args, "gb", rows)
    return 0


def cmd_resolve(args, ring, ideals):
    module, _ = _module_of(ring, args, ideals)
    res = minimal_free_resolution(module)
    rows = res.betti().rows()
    _report(args, "betti", rows)
    return 0


def cmd_socle(args, ring, ideals):
    module, _ = _module_of(ring, args, ideals)
    rows = []
    for j, (s_val, e_val) in socle_report(module).entries.items():
        checked = args.oracle and _oracle_spot_check(module, j, s_val, e_val)
        rows.append((j, e_val, s_val, checked))
    _report(args, "socle", rows)
    return 0


def cmd_canonical(args, ring, ideals):
    data = canonical_ideal(ring)
    cert = endomorphism_check(ring, data.ideal)
    payload = {
        "omega_generator_degrees": [fmt(d) for d in data.omega_module.generator_degrees],
        "canonical_ideal_generators": [format_polynomial(g) for g in data.ideal.generators],
        "a_invariant": fmt(data.a_invariant),
        "shift": fmt(data.shift),
        "endomorphism_check": bool(cert.ok),
    }
    if args.format == "json":
        import json

        _emit(args, json.dumps({"schema": SCHEMA, "kind": "canonical",
                                **payload}, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{k},{v}" for k, v in (
            ("a_invariant", payload["a_invariant"]),
            ("shift", payload["shift"]),
            ("endomorphism_check", fmt(cert.ok)),
            ("omega_generator_degrees", ";".join(payload["omega_generator_degrees"])),
            ("canonical_ideal", ";".join(payload["canonical_ideal_generators"])),
        )]
        _emit(args, "key,value\n" + "\n".join(lines) + "\n")
    return 0


def cmd_fedder(args, ring, ideals):
    if args.e_max < 1:
        raise DomainError("e_max must be >= 1")
    rows = []
    for e in range(1, args.e_max + 1):
        rep = fedder_module(ring, e)
        rows.append((rep.e, rep.q, rep.mu, tuple(rep.generator_degrees)))
    _report(args, "fedder", rows)
    return 0


def _report_gauge(args, records, verdict):
    """The gauge rows with the boundedness verdict as their summary."""
    _report(args, "gauge", records, summary={
        "consistent": verdict.consistent,
        "witness_measured": fmt(verdict.witness),
        "attained_at": verdict.attained_at,
        "note": verdict.note,
    }, lines=[verdict.note, f"measured witness max_alpha = {fmt(verdict.witness)}"])


def cmd_gauge(args, ring, ideals):
    records, verdict = gauge_scan(ring, args.e_max)
    _report_gauge(args, records, verdict)
    return 0


def cmd_scan_powers(args, ring, ideals):
    ideal = _need_ideal(args, ideals)
    rows, summary = scan_powers(ring, ideal, args.t_max, oracle=args.oracle)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(powers_chart_svg(rows))
    _report(args, "powers", rows, summary_to_json(summary), summary_to_strings(summary))
    return 0


def cmd_scan_frobenius(args, ring, ideals):
    records, verdict = gauge_scan(ring, args.e_max)
    if args.svg:
        # Reuse the chart with e on the x axis and socle/q on the y axis.
        rows = [ScanRow(r.e, 0, None, r.socle_begin_canonical) for r in records]
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(powers_chart_svg(rows, title="socle_beg(omega^[q]) / e against e"))
    _report_gauge(args, records, verdict)
    return 0


def cmd_criterion(args, ring, ideals):
    ideal = _need_ideal(args, ideals)
    rows, verdicts, d = criterion_check(ring, ideal, args.t_max, truncation=args.trunc)
    lines = []
    for v in verdicts:
        status = "pass" if v.passed else "FAIL"
        if v.vacuous:
            status += " (vacuous: no finite lower-cohomology data)"
        lines.append(
            f"t={v.t}: measured c'={fmt(v.c_prime)} alpha_d={fmt(v.alpha_d)} "
            f"bound={fmt(v.bound)} socle_beg={fmt(v.socle_beg_top)} -> {status}"
        )
    _report(args, "criterion", rows, summary={
        "dimension": d,
        "verdicts": [
            {
                "t": v.t,
                "c_prime_measured": fmt(v.c_prime),
                "alpha_d": fmt(v.alpha_d),
                "bound": fmt(v.bound),
                "socle_beg": fmt(v.socle_beg_top),
                "passed": v.passed,
                "vacuous": v.vacuous,
            }
            for v in verdicts
        ],
    }, lines=lines)
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_lemma37(args, ring, ideals):
    ideal = _need_ideal(args, ideals)
    rows, summary = lemma37_scan(ring, ideal, args.t_max)
    _report(args, "lemma37", rows, summary_to_json(summary), summary_to_strings(summary))
    return 0


_COMMANDS = {
    "gb": cmd_gb,
    "resolve": cmd_resolve,
    "socle": cmd_socle,
    "canonical": cmd_canonical,
    "fedder": cmd_fedder,
    "gauge": cmd_gauge,
    "scan-powers": cmd_scan_powers,
    "scan-frobenius": cmd_scan_frobenius,
    "criterion": cmd_criterion,
    "lemma37": cmd_lemma37,
}


@functools.cache
def _parser():
    """The parser, built once per process: ``parse_args`` reads it and
    leaves it as it was, so every call can share it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        ring, ideals = parse_input_file(args.input)
        return _COMMANDS[args.command](args, ring, ideals)
    except HypothesisError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, InputSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
