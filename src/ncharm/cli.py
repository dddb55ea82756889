"""Command line surface: `ncharm <subcommand> [options] [polynomial]`.

Subcommands: derive, laplacian, collapse-check, harmonic-basis,
middle-matrix, classify, sos, odd-sandwich, eval, sample.

Input polynomials come from an inline argument, --file, or stdin; passing
both an inline polynomial and --file is an error rather than a silent
precedence.  An inline polynomial that starts with '-' goes after '--', or
argparse reads it as an option.  Exit codes: 0 success, 1 a NotSubharmonic / Counterexample
verdict from classify or sample (pipeline friendly), 2 parse or validation
errors.  All diagnostics go to stderr; results go to stdout and are byte
deterministic for a fixed seed.  The environment variable NCHARM_SEED
supplies a default seed; an explicit --seed flag overrides it.

Each subcommand imports the modules it needs when it runs.  numpy loads
only for eval, sample and a classify verdict with a witness, so the exact
subcommands start without it.  No module of the package imports
dataclasses, so no subcommand pays for it (or for the inspect module it
loads) at start-up.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import groupby
from typing import TYPE_CHECKING

from .calculus import (
    commutative_collapse,
    commutative_laplacian,
    directional_derivative,
    laplacian,
)
from .ncpoly import (
    H_LETTER,
    MatrixPoint,
    ParseError,
    Poly,
    evaluate,
    parse,
    render_word,
)

if TYPE_CHECKING:
    from . import classify2, positivity

__all__ = ["main", "run", "emit_json"]


# ---------------------------------------------------------------------------
# Canonical JSON emission
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot write the non-finite number {x!r} as JSON")
    return format(float(x), ".17g")


def emit_json(obj) -> str:
    """Serialize with stable field order, rationals as "num/den" strings and
    doubles at 17 significant digits.  nan and inf raise ValueError, since
    JSON has no spelling for them."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, Fraction):
        out.append(f'"{obj.numerator}/{obj.denominator}"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _witness_obj(w: positivity.Witness) -> dict:
    return {
        "n": w.n,
        "X": [[[float(v) for v in row] for row in M] for M in w.X],
        "H": None if w.H is None else [[float(v) for v in row] for row in w.H],
        "min_eig": float(w.min_eig),
        "sample_index": w.sample_index,
    }


def _sos_obj(dec: classify2.SosDecomposition) -> dict:
    return {"terms": [{"coeff": d, "poly": r.to_json_obj()} for d, r in dec.terms]}


def _verdict_obj(v: classify2.Verdict) -> dict:
    obj: dict = {"kind": v.kind, "reason": v.reason}
    if v.membership is not None:
        c0, c1, c2 = v.membership
        obj["membership"] = {"c0": c0, "c1": c1, "c2": c2}
    if v.region is not None:
        obj["region"] = {f: getattr(v.region, f) for f in v.region.__match_args__}
    if v.sos is not None:
        obj["sos"] = _sos_obj(v.sos)
    if v.witness is not None:
        obj["witness"] = _witness_obj(v.witness)
    return obj


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncharm",
        description="Exact calculus and positivity analysis for polynomials "
        "in free symmetric variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        p.add_argument("--vars", type=int, default=2, metavar="G",
                       help="number of x variables (default 2)")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if with_input:
            p.add_argument("poly", nargs="?", default=None,
                           help="inline polynomial text (after -- if it "
                                "starts with '-')")
            p.add_argument("--file", default=None, metavar="PATH",
                           help="read the polynomial from a file")

    def add_sampling(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--sizes", default="1,2,3,4",
                       help="comma separated matrix sizes")
        p.add_argument("--samples", type=int, default=200,
                       help="samples per size")
        p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("derive", help="directional derivative in one variable")
    add_common(p)
    p.add_argument("--var", type=int, required=True, metavar="I",
                   help="index of the variable to differentiate")

    p = sub.add_parser("laplacian", help="free Laplacian of an h-free polynomial")
    add_common(p)

    p = sub.add_parser("collapse-check",
                       help="compare the collapsed Laplacian with h^2 times "
                            "the commutative Laplacian of the collapse")
    add_common(p)

    p = sub.add_parser("harmonic-basis", help="exact harmonic basis for (g, d)")
    add_common(p, with_input=False)
    p.add_argument("--degree", type=int, required=True, metavar="D")

    p = sub.add_parser("middle-matrix",
                       help="border vector and middle matrix of a polynomial "
                            "quadratic in h")
    add_common(p)

    p = sub.add_parser("classify",
                       help="classify a homogeneous polynomial in two variables")
    add_common(p)
    add_sampling(p)

    p = sub.add_parser("sos", help="sum of squares of harmonics decomposition")
    add_common(p)

    p = sub.add_parser("odd-sandwich",
                       help="sandwich coefficients of an odd-degree harmonic")
    add_common(p)

    p = sub.add_parser("eval", help="evaluate at a matrix point from JSON")
    add_common(p)
    p.add_argument("--point", required=True, metavar="PATH",
                   help="JSON file with X (list of matrices) and optional H")

    p = sub.add_parser("sample",
                       help="seeded random search for a negative eigenvalue")
    add_common(p)
    add_sampling(p)

    return parser


def _read_poly(args, stdin) -> Poly:
    sources = [s for s in ("inline" if args.poly is not None else None,
                           "file" if args.file is not None else None) if s]
    if len(sources) > 1:
        raise ValueError("both an inline polynomial and --file were given; "
                         "pass exactly one input source")
    if args.poly is not None:
        text = args.poly
    elif args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = (stdin or sys.stdin).read()
    return parse(text.strip(), args.vars)


def _sample_config(args) -> positivity.SampleConfig:
    from ._sampleconfig import SampleConfig

    seed = args.seed
    if seed is None:
        text = os.environ.get("NCHARM_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"NCHARM_SEED must be an integer, got {text!r}") from None
    try:
        sizes = tuple(int(s) for s in str(args.sizes).split(","))
    except ValueError:
        raise ValueError(
            f"--sizes must be comma separated integers, got {args.sizes!r}"
        ) from None
    return SampleConfig(
        seed=seed, sizes=sizes, samples_per_size=args.samples, tol=args.tol
    )


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _print_poly(args, result: Poly, out) -> int:
    print(emit_json(result.to_json_obj()) if args.json else result.render(), file=out)
    return 0


def _cmd_derive(args, stdin, out) -> int:
    p = _read_poly(args, stdin)
    return _print_poly(args, directional_derivative(p, args.var), out)


def _cmd_laplacian(args, stdin, out) -> int:
    p = _read_poly(args, stdin)
    return _print_poly(args, laplacian(p), out)


def _cmd_collapse_check(args, stdin, out) -> int:
    p = _read_poly(args, stdin)
    lhs = commutative_collapse(laplacian(p))
    rhs = commutative_laplacian(commutative_collapse(p)).times_h_power(2)
    equal = lhs == rhs
    if args.json:
        obj = {
            "collapse_of_laplacian": lhs.to_json_obj(),
            "h2_delta_of_collapse": rhs.to_json_obj(),
            "equal": equal,
        }
        print(emit_json(obj), file=out)
    else:
        print(f"collapse(laplacian) = {lhs.render()}", file=out)
        print(f"h^2 * delta(collapse) = {rhs.render()}", file=out)
        print(f"identity holds: {'true' if equal else 'false'}", file=out)
    return 0


def _cmd_harmonic_basis(args, stdin, out) -> int:
    from . import harmonicspace

    basis = harmonicspace.harmonic_basis(args.vars, args.degree)
    if args.json:
        obj = {
            "g": basis.g,
            "degree": basis.d,
            "dimension": basis.dimension,
            "elements": [p.to_json_obj() for p in basis.elements],
        }
        print(emit_json(obj), file=out)
    else:
        print(f"dimension: {basis.dimension}", file=out)
        for p in basis.elements:
            print(p.render(), file=out)
    return 0


def _cmd_middle_matrix(args, stdin, out) -> int:
    from . import middlematrix

    q = _read_poly(args, stdin)
    rep = middlematrix.extract(q)
    if args.json:
        # emit_json of {"border": ..., "Z": grid}, written a row at a time
        # from the cell terms, so no N x N grid of Polys is built.
        zero = emit_json(Poly.zero(rep.g).to_json_obj())
        rows = {i: list(terms) for i, terms in groupby(rep.cells, key=lambda t: t[0])}
        out.write('{"border":' + emit_json([list(m) for m in rep.border]) + ',"Z":[')
        for i in range(rep.size):
            row = [zero] * rep.size
            for j, cell in groupby(rows.get(i, ()), key=lambda t: t[1]):
                z = Poly._raw(rep.g, {mid: c for _, _, mid, c in cell})
                row[j] = emit_json(z.to_json_obj())
            out.write(("," if i else "") + "[" + ",".join(row) + "]")
        print("]}", file=out)
    else:
        names = [render_word(bytes([H_LETTER]) + m) for m in rep.border]
        print("border: " + ", ".join(names), file=out)
        for (i, j), terms in groupby(rep.cells, key=lambda t: t[:2]):
            z = Poly._raw(rep.g, {mid: c for _, _, mid, c in terms})
            print(f"Z[{i + 1}][{j + 1}] = {z.render()}", file=out)
    return 0


def _cmd_classify(args, stdin, out) -> int:
    from . import classify2

    p = _read_poly(args, stdin)
    verdict = classify2.classify(p, _sample_config(args))
    if args.json:
        print(emit_json(_verdict_obj(verdict)), file=out)
    else:
        print(f"verdict: {verdict.kind}", file=out)
        if verdict.reason:
            print(f"reason: {verdict.reason}", file=out)
        if verdict.membership is not None:
            c0, c1, c2 = verdict.membership
            print(f"membership: c0 = {c0}, c1 = {c1}, c2 = {c2}", file=out)
        if verdict.region is not None:
            r = verdict.region
            print(
                f"region: {r.kind} (G = {r.G}, Hh = {r.Hh}, Jj = {r.Jj}, K = {r.K})",
                file=out,
            )
        if verdict.sos is not None:
            for d, rpoly in verdict.sos.terms:
                print(f"sos term: {d} * T({rpoly.render()}) * ({rpoly.render()})",
                      file=out)
        if verdict.witness is not None:
            print("witness: " + emit_json(_witness_obj(verdict.witness)), file=out)
    return 1 if verdict.kind == "NotSubharmonic" else 0


def _cmd_sos(args, stdin, out) -> int:
    from . import classify2

    p = _read_poly(args, stdin)
    dec = classify2.sos_decompose(p)
    if args.json:
        print(emit_json(_sos_obj(dec)), file=out)
    elif not dec.terms:
        print("zero polynomial: empty sum of squares", file=out)
    else:
        for d, r in dec.terms:
            print(f"{d}: {r.render()}", file=out)
    return 0


def _cmd_odd_sandwich(args, stdin, out) -> int:
    from . import classify2

    p = _read_poly(args, stdin)
    s = classify2.odd_sandwich(p)
    if args.json:
        basis = s.basis.elements if s.basis else []
        obj = {"degree": s.d, "basis": [b.to_json_obj() for b in basis], "phi": s.phi}
        print(emit_json(obj), file=out)
    else:
        if s.basis is None:
            print("zero polynomial: empty sandwich", file=out)
            return 0
        for mdx, plane in enumerate(s.phi):
            for i, row in enumerate(plane):
                for j, c in enumerate(row):
                    if c:
                        print(f"phi[{mdx + 1}][x{i + 1}][{j + 1}] = {c}", file=out)
    return 0


def _square_matrix(entry, name: str):
    """A point-file entry, refused by name unless square 2-D and, when its
    entries are finite, exactly symmetric (MatrixPoint names a non-finite
    entry)."""
    import numpy as np

    try:
        M = np.array(entry, dtype=float)
    except (TypeError, ValueError):
        M = None
    if M is None or M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"point entry {name} is not a square matrix")
    if np.isfinite(M).all() and not (M == M.T).all():
        raise ValueError(f"point entry {name} is not symmetric")
    return M


def _cmd_eval(args, stdin, out) -> int:
    import numpy as np

    p = _read_poly(args, stdin)
    with open(args.point, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except RecursionError:
            raise ValueError(f"the point file {args.point} nests too deeply "
                             "to decode") from None
    if not isinstance(spec, dict) or not isinstance(spec.get("X"), list):
        raise ValueError("the point file must be a JSON object whose X is a list "
                         "of square matrices")
    X = tuple(_square_matrix(M, f"X[{i}]") for i, M in enumerate(spec["X"]))
    H = spec.get("H")
    point = MatrixPoint(X=X, H=None if H is None else _square_matrix(H, "H"))
    # emit_json refuses, by name, a value that overflowed.
    with np.errstate(over="ignore", invalid="ignore"):
        result = evaluate(p, point)
    print(emit_json([[float(v) for v in row] for row in result]), file=out)
    return 0


def _cmd_sample(args, stdin, out) -> int:
    from . import positivity

    p = _read_poly(args, stdin)
    verdict = positivity.sample_matrix_positive(p, _sample_config(args))
    obj: dict = {
        "kind": verdict.kind,
        "samples_tested": verdict.samples_tested,
        "min_eigenvalue_seen": verdict.min_eigenvalue_seen,
    }
    if verdict.witness is not None:
        obj["witness"] = _witness_obj(verdict.witness)
    print(emit_json(obj), file=out)
    return 1 if verdict.kind == "Counterexample" else 0


_COMMANDS = {
    "derive": _cmd_derive,
    "laplacian": _cmd_laplacian,
    "collapse-check": _cmd_collapse_check,
    "harmonic-basis": _cmd_harmonic_basis,
    "middle-matrix": _cmd_middle_matrix,
    "classify": _cmd_classify,
    "sos": _cmd_sos,
    "odd-sandwich": _cmd_odd_sandwich,
    "eval": _cmd_eval,
    "sample": _cmd_sample,
}


def main(argv=None, stdin=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, stdin, sys.stdout)
    except (ParseError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv, stdin_text: str = "") -> tuple[int, str, str]:
    """Run the CLI capturing output; returns (exit code, stdout, stderr)."""
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with redirect_stdout(buf_out), redirect_stderr(buf_err):
        code = main(argv, stdin=io.StringIO(stdin_text))
    return code, buf_out.getvalue(), buf_err.getvalue()


if __name__ == "__main__":
    sys.exit(main())
