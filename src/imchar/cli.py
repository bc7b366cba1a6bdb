"""Command line interface.

Subcommands::

    classify       determination verdict for a distribution or measure
    norm           norm of the imaginary part of the transform
    companion      explicit distinct measure sharing the imaginary part
    decompose      symmetric/antisymmetric split plus Jordan parts
    verify-lemma1  disjoint-support certificate of the antisymmetric part
    oracle         closed-form vs pipeline agreement run on Z_n
    catalog-list   the distribution catalog as JSON
    cf-grid        transform values on a grid (CSV: x, re, im, err)

Exit codes: 0 success; 1 bad input (unknown distribution, malformed
measure JSON, violated precondition); 2 internal check failure such as
an oracle disagreement or a catalog regression mismatch.

Measures come either from the catalog (--dist name --params k=v,...)
or from a JSON file (--measure path). All JSON output is deterministic:
keys sorted, floats as their shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import math
import sys

from imchar import catalog, jsonio, wire
from imchar.charfn import sample_cf
from imchar.decompose import hahn_jordan, sym_anti_split, v_set_certificate
from imchar.determine import bnorm_im, companion, is_determined
from imchar.domains import _KINDS
from imchar.errors import ImcharError, InternalCheckError, ParameterError
from imchar.finite import MAX_ORACLE_ORDER, oracle_agreement
from imchar.measures import SignedMeasure

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _parse_params(text: str) -> dict:
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ParameterError(f"--params expects k=v pairs, got {item!r}")
        k, v = item.split("=", 1)
        try:
            params[k.strip()] = float(v)
        except ValueError:
            raise ParameterError(f"--params value for {k.strip()!r} is not "
                                 f"a number: {v!r}") from None
    return params


def _spec(args):
    """The catalog entry named by --dist, bound to --params."""
    return catalog.spec(args.dist, **_parse_params(args.params or ""))


def _load_input(args) -> SignedMeasure:
    """Resolve --dist/--measure into a measure."""
    if args.dist and args.measure:
        raise ParameterError("give either --dist or --measure, not both")
    if args.dist:
        return catalog.make_measure(_spec(args))
    if args.measure:
        return wire.load_measure(args.measure)
    raise ParameterError("an input is required: --dist NAME or --measure FILE")


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_obj(args, obj):
    _emit(args, jsonio.dumps(obj))


def _parse_sigma(text: str):
    if text == "zero":
        return "zero"
    if text.startswith("pair:"):
        try:
            return ("pair", float(text[5:]))
        except ValueError:
            raise ParameterError(f"--sigma pair location is not a number: "
                                 f"{text[5:]!r}") from None
    raise ParameterError(f'--sigma must be "zero" or "pair:<a>", got {text!r}')


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_classify(args) -> int:
    if args.dist and not args.measure:
        result = catalog.classify(_spec(args))
        obj = result.verdict.to_obj()
        obj["distribution"] = args.dist
        obj["expected"] = result.expected
        obj["agrees"] = result.agrees
        _emit_obj(args, obj)
        return EXIT_OK if result.agrees else EXIT_INTERNAL
    _emit_obj(args, is_determined(_load_input(args)).to_obj())
    return EXIT_OK


def _cmd_norm(args) -> int:
    m = _load_input(args)
    _emit_obj(args, {"norm_im": bnorm_im(m)})
    return EXIT_OK


def _cmd_companion(args) -> int:
    m = _load_input(args)
    result = companion(m, _parse_sigma(args.sigma))
    obj = {
        "sigma": result.sigma_choice,
        "norm_im": result.norm_im,
        "max_im_discrepancy": result.max_im_discrepancy,
        "distinctness": result.distinctness,
        "companion": wire.measure_to_obj(result.companion),
    }
    _emit_obj(args, obj)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    m = _load_input(args)
    split = sym_anti_split(m)
    jp = hahn_jordan(split.antisymmetric_part)
    obj = {
        "sym": wire.measure_to_obj(split.symmetric_part),
        "anti": wire.measure_to_obj(split.antisymmetric_part),
        "jordan": {
            "pos": wire.measure_to_obj(jp.positive_part),
            "neg": wire.measure_to_obj(jp.negative_part),
            "Apos": wire.set_to_obj(jp.hahn_positive),
            "Aneg": wire.set_to_obj(jp.hahn_negative),
        },
    }
    _emit_obj(args, obj)
    return EXIT_OK


def _cmd_verify_lemma1(args) -> int:
    m = _load_input(args)
    eta = sym_anti_split(m).antisymmetric_part
    cert = v_set_certificate(eta)
    obj = {
        "V": wire.set_to_obj(cert.v_set),
        "disjointness_ok": cert.disjointness_ok,
        "masses": list(cert.masses),
    }
    _emit_obj(args, obj)
    spread = max(cert.masses) - min(cert.masses)
    if not cert.disjointness_ok or spread > 1e-9:
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = oracle_agreement(args.n, args.trials, args.seed)
    _emit_obj(args, report)
    return EXIT_OK if report["disagreements"] == 0 else EXIT_INTERNAL


def _cmd_catalog_list(args) -> int:
    _emit_obj(args, catalog.catalog_list_obj())
    return EXIT_OK


def _cmd_cf_grid(args) -> int:
    if not (math.isfinite(args.xmin) and math.isfinite(args.xmax)):
        raise ParameterError("--xmin and --xmax must be finite, "
                             f"got {args.xmin} and {args.xmax}")
    m = _load_input(args)
    if args.points < 1:
        raise ParameterError("--points must be at least 1")
    integer_dual = _KINDS[m.domain.kind].integer_dual
    if integer_dual:
        pts = list(range(int(args.xmin), int(args.xmax) + 1)[: args.points])
    else:
        lo, hi = args.xmin, args.xmax
        pts = [lo + (hi - lo) * i / max(args.points - 1, 1) for i in range(args.points)]
    sample = sample_cf(m, pts)
    cast = int if integer_dual else float
    rows = [(cast(x), v.real, v.imag, float(e))
            for x, v, e in zip(sample.points, sample.values, sample.errors)]
    if args.format == "json":
        _emit(args, jsonio.dumps([
            {"x": x, "re": re_, "im": im_, "err": err}
            for x, re_, im_, err in rows]))
    else:
        _emit(args, jsonio.csv_rows(["x", "re", "im", "err"], rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


_OUTPUT_FLAGS = (("--out", dict(help="write output to this file instead of stdout")),)
_INPUT_FLAGS = (
    ("--dist", dict(help="catalog distribution name")),
    ("--params", dict(help="comma-separated k=v parameter overrides")),
    ("--measure", dict(help="path to a measure JSON file")),
) + _OUTPUT_FLAGS

#: (name, body, help, flags) per subcommand, in --help order
_COMMANDS = (
    ("classify", _cmd_classify, "determination verdict", _INPUT_FLAGS),
    ("norm", _cmd_norm, "norm of the transform's imaginary part", _INPUT_FLAGS),
    ("companion", _cmd_companion, "distinct measure with the same imaginary part",
     _INPUT_FLAGS + (("--sigma", dict(default="zero", help='symmetric filler: '
                                       '"zero" (default) or "pair:<a>"')),)),
    ("decompose", _cmd_decompose, "symmetric/antisymmetric and Jordan decompositions",
     _INPUT_FLAGS),
    ("verify-lemma1", _cmd_verify_lemma1,
     "disjoint-support certificate for the antisymmetric part", _INPUT_FLAGS),
    ("oracle", _cmd_oracle, "Z_n closed-form agreement run",
     (("--n", dict(type=int, required=True, help=f"group order (2 to {MAX_ORACLE_ORDER})")),
      ("--trials", dict(type=int, default=100)),
      ("--seed", dict(type=int, default=0))) + _OUTPUT_FLAGS),
    ("catalog-list", _cmd_catalog_list, "catalog entries as JSON", _OUTPUT_FLAGS),
    ("cf-grid", _cmd_cf_grid, "transform values on a grid (CSV)",
     _INPUT_FLAGS + (("--format", dict(choices=["csv", "json"], default="csv")),
                     ("--xmin", dict(type=float, default=-10.0)),
                     ("--xmax", dict(type=float, default=10.0)),
                     ("--points", dict(type=int, default=101)))),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="imchar",
                     description="determination of characteristic functions "
                                 "by their imaginary parts")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, fn, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help(sys.stderr)
            return EXIT_INPUT
        return args.fn(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ImcharError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
