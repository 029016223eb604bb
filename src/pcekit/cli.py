"""Command-line front end.

Subcommands: check, census, diagram, decompose, evolve, collide, verify.
Global flags (before the subcommand): --format json|text, --seed, --tol.
Exit codes: 0 success, 1 domain failure (non-channel input, verification
mismatch), 2 usage or parse error.  All float output uses 12 significant
digits, and every command is byte-deterministic given its arguments.

The CLI parses arguments and documents and formats results.  The verdicts
come from the library: `check`'s report from `dense.check_report` and
`verify`'s counts from `dense.verify_report`, both judged by one oracle
rule.  `evolve` and `collide` read their state through one loader,
`_load_state`, which also checks its qubit count against the process or
schedule.  `evolve` computes its rows in one loop, one `evolve_components`
call per slice of at most ``DEFAULT_ENUMERATION_LIMIT`` values, and streams
them as CSV; with the global ``--format json`` it writes its one slice as a
JSON document and refuses a trajectory that needs more.  `diagram`, whose own
``--format ascii|svg`` chooses the picture, exits 2 under ``--format json``.
`collide` prints `dynamics.fixed_point_components(schedule, r0)`, the function
that also gives a process's t -> infinity state: the components that commute
with every label are kept, the rest print as exactly 0.  Its text runs to the
bitmask limit (n <= 13), its JSON density matrix to the dense limit (n <= 5).
The dense collision circuit, `dynamics.collide`, is only the tests' oracle.

The argparse parser is built once per process, at import (`_PARSER`); each
`main` call only parses its arguments into a fresh namespace, so no call
leaves state behind for the next.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .dense import (
    check_report,
    check_state_components,
    from_pauli_components,
    pauli_components,
    verify_report,
)
from .diagram import render_ascii, render_svg
from .dynamics import (
    evolve_components,
    fixed_point_components,
    process_from_json_dict,
    schedule_from_json_dict,
)
from .enumeration import DEFAULT_ENUMERATION_LIMIT, census, recount_by_enumeration
from .errors import (
    DimensionMismatchError,
    InvalidStabilizerSetError,
    NotAChannelError,
    PceError,
    TracePreservationError,
)
from .generators import decompose, recompose_subspace
from .maps import Subspace, load_channel_document, map_to_subspace
from .pauli import N_MAX, parse_qubit_count


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _indexed_lines(pattern: str, values: list[float]) -> str:
    """One line per value, ``pattern % (index, value)``, by one ``%`` on the
    repeated pattern: per-value formatting cost more than the propagator.
    ``%.12g`` prints what `_fmt` prints for every float."""
    items = [0] * (2 * len(values))
    items[::2] = range(len(values))
    items[1::2] = values
    items = tuple(items)  # the list is freed before the text is built
    return pattern * len(values) % items


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
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _load_state(path: str, tol: float, kind: str, qubits: int) -> tuple[int, np.ndarray]:
    """The state document at ``path`` -> (n, component vector) of a density
    matrix within ``tol`` (see `check_state_components`), refused unless n is
    ``qubits``, the qubit count of the ``kind`` ("process" or "schedule") it
    goes through."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError('state document must be an object with an integer "n"')
    n = parse_qubit_count(doc.get("n"))
    if ("components" in doc) == ("rho" in doc):
        raise ValueError('state document needs exactly one of "components" or "rho"')
    if "components" in doc:
        message = f'"components" must be {4**n} finite numbers'
        r = _finite_array(doc["components"], (4**n,), message)
    else:
        r = pauli_components(_parse_matrix(doc["rho"], 2**n), tol)
    check_state_components(r, tol)
    if n != qubits:
        raise DimensionMismatchError(f"state has n={n} but {kind} has n={qubits}")
    return n, r


def _finite_array(value, shape: tuple[int, ...], message: str) -> np.ndarray:
    """``value`` as a float array of ``shape`` whose entries are finite JSON
    numbers (strings and bools are refused), else ValueError."""
    try:
        cells = np.asarray(value, dtype=object)
        numbers = cells.shape == shape and set(map(type, cells.flat)) <= {int, float}
        array = cells.astype(float) if numbers else None
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None or not np.isfinite(array).all():
        raise ValueError(message)
    return array


def _parse_matrix(rows, dim: int) -> np.ndarray:
    message = f'"rho" must be a {dim}x{dim} matrix of finite [re, im] pairs'
    matrix = _finite_array(rows, (dim, dim, 2), message)
    return matrix[..., 0] + 1j * matrix[..., 1]


def _dump_matrix(matrix: np.ndarray) -> list:
    """[re, im] pairs; `_emit_json` rounds them."""
    return np.stack((matrix.real, matrix.imag), axis=-1).tolist()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    report = check_report(load_channel_document(_read_json(args.channel)), args.tol)
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
    if args.format == "json":
        raise ValueError(
            "diagram has no JSON form; its own --format ascii|svg chooses the picture"
        )
    obj = load_channel_document(_read_json(args.channel))
    render = render_svg if args.diagram_format == "svg" else render_ascii
    sys.stdout.write(render(obj))
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
    n, r0 = _load_state(args.state, args.tol, "process", proc.n)
    # Checked here, before any output, with messages that name the options;
    # every time args.t * i / args.steps with i <= args.steps is then finite.
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if not 0 <= args.t < math.inf:
        raise ValueError("time must be a nonnegative finite number")
    if not args.t * args.steps < math.inf:
        raise ValueError(f"time * --steps must be finite, got {args.t!r} * {args.steps}")
    fixed = fixed_point_components(proc, r0)
    # One evolve_components call per slice of at most DEFAULT_ENUMERATION_LIMIT
    # values (one row per slice past n = 11).  The text rows stream; the JSON
    # document is the one slice, so its size is bounded like --samples.
    per_call = max(1, DEFAULT_ENUMERATION_LIMIT // 4**n)
    text = args.format == "text"
    if not text and args.steps + 1 > per_call:
        raise ValueError(
            f"--steps {args.steps} at n={n} makes {(args.steps + 1) * 4**n} values; "
            f"evolve's JSON holds at most {DEFAULT_ENUMERATION_LIMIT}"
        )
    if text:
        print("t,alpha,r")
    for start in range(0, args.steps + 1, per_call):
        stop = min(start + per_call, args.steps + 1)
        times = args.t * np.arange(start, stop) / args.steps
        rows = evolve_components(proc, r0, times)
        if text:
            # One write per row; `_fmt`'s digits hold no "%".
            for t, row in zip(times.tolist(), rows):
                sys.stdout.write(_indexed_lines(_fmt(t) + ",%d,%.12g\n", row.tolist()))
    distance = float(np.abs(rows[-1] - fixed).max())
    if text:
        print(f"# max_abs_distance_to_fixed_point = {_fmt(distance)}")
    else:
        _emit_json(
            {
                "n": n,
                "t": times.tolist(),
                "r": rows.tolist(),
                "max_abs_distance_to_fixed_point": distance,
            }
        )
    return 0


def cmd_collide(args) -> int:
    schedule = schedule_from_json_dict(_read_json(args.schedule))
    n, r0 = _load_state(args.state, args.tol, "schedule", schedule.n)
    # The limits: `recompose` checks n <= 13, and the JSON matrix's
    # `pauli_basis` n <= 5.
    r = fixed_point_components(schedule, r0)
    if args.format == "json":
        _emit_json({"n": n, "rho": _dump_matrix(from_pauli_components(r))})
    else:
        print(f"n: {n}")
        sys.stdout.write(_indexed_lines("%d %.12g\n", r.tolist()))
    return 0


def cmd_verify(args) -> int:
    # The mode follows n: every map for n <= 2, a sample for n = 3.
    if args.n <= 2:
        if args.samples is not None:
            raise ValueError("--samples supports n = 3 only")
        masks = [1 | (m << 1) for m in range(1 << (4**args.n - 1))]
        mode = "exhaustive"
    else:
        if args.exhaustive:
            raise ValueError("--exhaustive supports n <= 2 only")
        count = 10000 if args.samples is None else args.samples
        if count < 1:
            raise ValueError("--samples must be at least 1")
        # Refused before any draw: a larger count would only exhaust memory.
        if count > DEFAULT_ENUMERATION_LIMIT:
            raise ValueError(f"--samples must be at most {DEFAULT_ENUMERATION_LIMIT}")
        rng = np.random.default_rng(args.seed)
        draws = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        masks = [int(d) | 1 for d in draws]
        mode = f"sampled (seed {args.seed})"
    result = {"n": args.n, "mode": mode, **verify_report(args.n, masks, args.tol)}
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
    return 0 if result["disagreements"] == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be nonnegative and finite, got {text}")
    # The dense solvers' rounding noise on a channel's lambda_min reaches
    # about -1.5e-15 (every channel up to n = 3, real block solves); a
    # tolerance below it reads working channels as not CP.
    if value < 1e-12:
        raise argparse.ArgumentTypeError(
            f"must be at least 1e-12, above the dense solvers' rounding noise, got {text}"
        )
    return value


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return int(text)


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
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed (default: 0)")
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


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
