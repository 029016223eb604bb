"""Command-line front end.

Subcommands: check, census, diagram, decompose, evolve, collide, verify.
Global flags (before the subcommand): --format json|text, --seed, --tol.
Exit codes: 0 success, 1 domain failure (non-channel input, verification
mismatch), 2 usage or parse error.  All float output uses 12 significant
digits, and every command is byte-deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .dense import choi_min_eigenvalues, from_pauli_components, pauli_components
from .diagram import render_ascii, render_svg
from .dynamics import (
    collide,
    evolve_components,
    fixed_point_components,
    process_from_json_dict,
    schedule_from_json_dict,
)
from .enumeration import census, recount_by_enumeration
from .errors import (
    DimensionMismatchError,
    InvalidStabilizerSetError,
    NotAChannelError,
    PceError,
    TracePreservationError,
)
from .generators import decompose, recompose_subspace
from .maps import (
    PceMap,
    Subspace,
    channel_spectrum,
    choi_spectrum,
    closure_witness,
    is_closed_subspace,
    load_channel_document,
    map_to_subspace,
    subspace_to_map,
)
from .pauli import CHOI_QUBIT_LIMIT, N_MAX, TAU_QUBIT_LIMIT, parse_qubit_count


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(value):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, list):
        return [_round12(v) for v in value]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    return value


def _emit_json(doc: dict) -> None:
    print(json.dumps(_round12(doc), indent=2))


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as handle:
        return json.load(handle)


def _load_state(doc: dict) -> tuple[int, np.ndarray]:
    """State document -> (n, component vector)."""
    if not isinstance(doc, dict):
        raise ValueError('state document must be an object with an integer "n"')
    n = parse_qubit_count(doc.get("n"))
    if "components" in doc:
        r = np.asarray(doc["components"], dtype=float)
        if r.shape != (4**n,) or not np.isfinite(r).all():
            raise ValueError(f'"components" must be {4**n} finite numbers')
        return n, r
    if "rho" in doc:
        rho = _parse_matrix(doc["rho"], 2**n)
        return n, pauli_components(rho)
    raise ValueError('state document needs "components" or "rho"')


def _parse_matrix(rows, dim: int) -> np.ndarray:
    matrix = np.asarray(rows, dtype=float)
    if matrix.shape != (dim, dim, 2) or not np.isfinite(matrix).all():
        raise ValueError(f'"rho" must be a {dim}x{dim} matrix of finite [re, im] pairs')
    return matrix[..., 0] + 1j * matrix[..., 1]


def _dump_matrix(matrix: np.ndarray) -> list:
    return [
        [[float(_fmt(v.real)), float(_fmt(v.imag))] for v in row] for row in matrix
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    obj = load_channel_document(_read_json(args.channel))
    report: dict = {"n": obj.n}
    if isinstance(obj, Subspace):
        report["is_pce"] = True
        report["is_channel"] = True
        report["K"] = obj.dim
        report["popcount"] = 2**obj.dim
        # The bitmask feeds only the dense oracle; the spectrum is closed-form.
        pce = subspace_to_map(obj) if obj.n <= CHOI_QUBIT_LIMIT else None
    else:
        pce = obj
        report["is_pce"] = pce.is_trace_preserving
        closed = pce.is_trace_preserving and is_closed_subspace(pce)
        report["is_channel"] = closed
        if closed:
            report["K"] = pce.preserved_count.bit_length() - 1
        report["popcount"] = pce.preserved_count
        if pce.is_trace_preserving and not closed:
            a, b, missing = closure_witness(pce)
            report["witness"] = {
                "pair": [a.to_string(), b.to_string()],
                "missing": missing.to_string(),
            }
    if obj.n <= TAU_QUBIT_LIMIT:
        if report["is_channel"]:
            counts = channel_spectrum(obj.n, report["K"])
        else:
            counts = choi_spectrum(pce).value_counts()
        report["spectrum"] = {
            "values": [{"value": str(v), "count": c} for v, c in counts],
            "min": str(counts[0][0]),
            "sum": str(sum(v * c for v, c in counts)),
        }
    if obj.n <= CHOI_QUBIT_LIMIT:
        lambda_min = float(choi_min_eigenvalues(pce.n, [pce.tau])[0])
        oracle_cp = lambda_min >= -args.tol
        report["oracle"] = {
            "lambda_min": lambda_min,
            "cp": oracle_cp,
            "agrees": oracle_cp == report["is_channel"],
        }
    if args.format == "json":
        _emit_json(report)
    else:
        _print_check_text(report)
    return 0 if report["is_channel"] else 1


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _print_check_text(report: dict) -> None:
    print(f"n: {report['n']}")
    print(f"is_pce: {_yesno(report['is_pce'])}")
    print(f"is_channel: {_yesno(report['is_channel'])}")
    if "K" in report:
        print(f"K: {report['K']}")
    print(f"popcount: {report['popcount']}")
    if "witness" in report:
        pair = report["witness"]["pair"]
        missing = report["witness"]["missing"]
        print(f"witness: {pair[0]} + {pair[1]} -> {missing} (erased)")
    if "spectrum" in report:
        values = ", ".join(
            f"{entry['value']} x{entry['count']}"
            for entry in report["spectrum"]["values"]
        )
        print(f"spectrum: {values}")
        print(f"lambda_min: {report['spectrum']['min']}")
        print(f"lambda_sum: {report['spectrum']['sum']}")
    if "oracle" in report:
        print(f"oracle_lambda_min: {_fmt(report['oracle']['lambda_min'])}")
        print(f"oracle_cp: {_yesno(report['oracle']['cp'])}")
        print(f"oracle_agrees: {_yesno(report['oracle']['agrees'])}")


def cmd_census(args) -> int:
    table = census(args.n)
    enumerated = None
    if args.n <= 3:
        enumerated = [recount_by_enumeration(args.n, K) for K in range(2 * args.n + 1)]
    match = enumerated is None or tuple(enumerated) == table.per_K
    if args.format == "json":
        doc = table.to_json_dict()
        if enumerated is not None:
            doc["enumerated"] = {str(K): c for K, c in enumerate(enumerated)}
            doc["formula_matches_enumeration"] = match
        _emit_json(doc)
    else:
        width = max(len(str(c)) for c in table.per_K)
        header = f"K  {'formula':>{max(width, 7)}}"
        if enumerated is not None:
            header += f"  {'enumerated':>10}"
        print(header)
        for K, count in enumerate(table.per_K):
            line = f"{K:<2} {count:>{max(width, 7)}}"
            if enumerated is not None:
                line += f"  {enumerated[K]:>10}"
            print(line)
        total_line = f"total {table.total}"
        if enumerated is not None:
            total_line += f" {sum(enumerated)}"
        print(total_line)
        print(f"symmetric: {_yesno(table.is_symmetric)}")
        if enumerated is not None:
            print(f"formula matches enumeration: {_yesno(match)}")
    return 0 if match else 1


def cmd_diagram(args) -> int:
    obj = load_channel_document(_read_json(args.channel))
    pce = subspace_to_map(obj) if isinstance(obj, Subspace) else obj
    render = render_svg if args.diagram_format == "svg" else render_ascii
    sys.stdout.write(render(pce))
    return 0


def cmd_decompose(args) -> int:
    obj = load_channel_document(_read_json(args.channel))
    target = obj if isinstance(obj, Subspace) else map_to_subspace(obj)
    labels = decompose(target)
    check = "OK" if recompose_subspace(labels, obj.n) == target else "FAIL"
    if args.format == "json":
        _emit_json(
            {
                "n": obj.n,
                "labels": [label.to_string() for label in labels],
                "recompose_check": check,
            }
        )
    else:
        shown = " ".join(label.to_string() for label in labels) or "(none)"
        print(f"labels: {shown}")
        print(f"recompose check: {check}")
    return 0 if check == "OK" else 1


def cmd_evolve(args) -> int:
    proc = process_from_json_dict(_read_json(args.process))
    n, r0 = _load_state(_read_json(args.state))
    if n != proc.n:
        raise DimensionMismatchError(
            f"state has n={n} but process has n={proc.n}"
        )
    # evolve_components checks t too, but only after the header is printed.
    if not 0 <= args.t < math.inf:
        raise ValueError("time must be a nonnegative finite number")
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    print("t,alpha,r")
    final = r0
    for i in range(args.steps + 1):
        t = args.t * i / args.steps
        final = evolve_components(proc, r0, t)
        for a, value in enumerate(final):
            print(f"{_fmt(t)},{a},{_fmt(value)}")
    distance = float(np.abs(final - fixed_point_components(proc, r0)).max())
    print(f"# max_abs_distance_to_fixed_point = {_fmt(distance)}")
    return 0


def cmd_collide(args) -> int:
    schedule = schedule_from_json_dict(_read_json(args.schedule))
    n, r0 = _load_state(_read_json(args.state))
    if n != schedule.n:
        raise DimensionMismatchError(
            f"state has n={n} but schedule has n={schedule.n}"
        )
    rho = collide(schedule, from_pauli_components(r0))
    if args.format == "json":
        _emit_json({"n": n, "rho": _dump_matrix(rho)})
    else:
        print(f"n: {n}")
        for a, value in enumerate(pauli_components(rho)):
            print(f"{a} {_fmt(value)}")
    return 0


def cmd_verify(args) -> int:
    if args.exhaustive and args.samples is not None:
        raise ValueError("choose either --exhaustive or --samples")
    if args.samples is not None and args.samples < 1:
        raise ValueError("--samples must be at least 1")
    exhaustive = args.exhaustive or (args.samples is None and args.n <= 2)
    if exhaustive:
        if args.n > 2:
            raise ValueError("--exhaustive supports n <= 2 only")
        masks = [1 | (m << 1) for m in range(1 << (4**args.n - 1))]
        mode = "exhaustive"
    else:
        if args.n != 3:
            raise ValueError("--samples supports n = 3 only")
        count = 10000 if args.samples is None else args.samples
        rng = np.random.default_rng(args.seed)
        draws = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        masks = [int(d) | 1 for d in draws]
        mode = f"sampled (seed {args.seed})"
    symbolic = np.array(
        [is_closed_subspace(PceMap(args.n, m)) for m in masks], dtype=bool
    )
    oracle = choi_min_eigenvalues(args.n, masks) >= -args.tol
    disagreements = int((symbolic != oracle).sum())
    result = {
        "n": args.n,
        "mode": mode,
        "maps_checked": len(masks),
        "cp_symbolic": int(symbolic.sum()),
        "cp_oracle": int(oracle.sum()),
        "disagreements": disagreements,
        "verdict": "PASS" if disagreements == 0 else "FAIL",
    }
    if args.format == "json":
        _emit_json(result)
    else:
        print(f"n: {result['n']}")
        print(f"mode: {result['mode']}")
        print(f"maps checked: {result['maps_checked']}")
        print(f"cp (symbolic): {result['cp_symbolic']}")
        print(f"cp (oracle): {result['cp_oracle']}")
        print(f"disagreements: {result['disagreements']}")
        print(f"verdict: {result['verdict']}")
    return 0 if disagreements == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be nonnegative and finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcekit",
        description="Inspect, enumerate, decompose, and simulate "
        "Pauli-component-erasing channels.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    parser.add_argument(
        "--tol",
        type=_tolerance,
        default=1e-9,
        help="numeric tolerance for dense oracles (default: 1e-9)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a channel document")
    p.add_argument("channel", help="channel JSON file, or - for stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("census", help="channel counts per preserved dimension")
    p.add_argument("n", type=int, choices=range(1, N_MAX + 1), metavar="n")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("diagram", help="render the grid diagram")
    p.add_argument("channel", help="channel JSON file, or - for stdin")
    p.add_argument(
        "--format",
        dest="diagram_format",
        choices=("ascii", "svg"),
        default="ascii",
        help="diagram format (default: ascii)",
    )
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("decompose", help="canonical elementary-channel labels")
    p.add_argument("channel", help="channel JSON file, or - for stdin")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("evolve", help="exact Lindblad trajectory as CSV")
    p.add_argument("process", help="process JSON file, or - for stdin")
    p.add_argument("state", help="state JSON file")
    p.add_argument("t", type=float, help="total evolution time")
    p.add_argument("--steps", type=int, default=20, help="sample rows (default: 20)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("collide", help="run a collision schedule on a state")
    p.add_argument("schedule", help="schedule JSON file, or - for stdin")
    p.add_argument("state", help="state JSON file")
    p.set_defaults(func=cmd_collide)

    p = sub.add_parser("verify", help="symbolic CP verdict vs dense Choi oracle")
    p.add_argument("n", type=int, choices=(1, 2, 3), metavar="n")
    p.add_argument("--exhaustive", action="store_true", help="all maps (n <= 2)")
    p.add_argument("--samples", type=int, default=None, help="random maps (n = 3)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TracePreservationError, NotAChannelError, InvalidStabilizerSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
