"""Command-line front end.

Commands::

    oddsaudit audit <file> [--pairwise]
    oddsaudit posterior <file> [--observe E1=1,E2=0] [--method exact|odds] (-i I | --all)
                        [--approx]
    oddsaudit example <name> [-o <file>]
    oddsaudit sweep --n N --m M --denominator D [--require-condition1]
                    [--witness-dir DIR] [--max-models N]
    oddsaudit scenario --values V,... --weights W,... --noise OFF:P,...
                       --thresholds T1,T2 -o <file>

Exit codes: 0 success/clean, 1 audit findings, 2 input errors, 3 enumeration
budget exceeded.  All numeric output is exact; ``--approx`` adds a clearly
marked float column for reading convenience only.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path

# Only what every command needs is imported here, so that a start loads and
# compiles just the code its command runs: each command, and each parser that
# needs a value from its command's modules, imports the rest when it runs.
from .errors import ModelError, SweepLimitError
from .modelfile import dump, dumps, load
from .rational import _rational_text, parse_integer, parse_rational

_OBSERVE_TOKEN = re.compile(r"E([0-9]+)=(0|1)")


def parse_observation(text: str, m: int) -> dict[int, bool]:
    """Parse ``E<j>=<0|1>`` tokens, comma separated; empty means no evidence."""
    event: dict[int, bool] = {}
    text = text.strip()
    if not text:
        return event
    for token in text.split(","):
        token = token.strip()
        match = _OBSERVE_TOKEN.fullmatch(token)
        if match is None:
            raise ValueError(f"bad observation token {token!r}; expected E<j>=<0|1>")
        j = parse_integer(match.group(1))
        if not 1 <= j <= m:
            raise ValueError(f"evidence index out of range 1..{m}: E{j}")
        if j in event:
            raise ValueError(f"duplicate observation for E{j}")
        event[j] = match.group(2) == "1"
    return event


def _integer_option(text: str) -> int:
    """argparse type for integer options, under the model files' integer grammar."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_list(text: str, what: str) -> list[Fraction]:
    items = [token.strip() for token in text.split(",") if token.strip()]
    if not items:
        raise ValueError(f"{what} list is empty")
    return [parse_rational(token) for token in items]


def _noise_map(text: str) -> dict[Fraction, Fraction]:
    noise: dict[Fraction, Fraction] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        offset_text, _, prob_text = token.partition(":")
        if not prob_text:
            raise ValueError(f"bad noise entry {token!r}; expected offset:probability")
        offset = parse_rational(offset_text.strip())
        if offset in noise:
            raise ValueError(f"duplicate noise offset {offset_text.strip()}")
        noise[offset] = parse_rational(prob_text.strip())
    if not noise:
        raise ValueError("noise list is empty")
    return noise


def _format_value(value: Fraction, approx: bool, i: int) -> str:
    text = _rational_text(value.numerator, value.denominator, f"posterior of H{i}")
    if approx:
        text += f" (approx {float(value):.9g})"
    return text


def cmd_audit(args) -> int:
    from .audit import check_assumptions, render_report

    model = load(args.file)
    report = check_assumptions(model, pairwise=args.pairwise)
    sys.stdout.write(render_report(report))
    return 0 if report.clean else 1


def cmd_posterior(args) -> int:
    from .updating import odds_posteriors

    model = load(args.file)
    event = parse_observation(args.observe or "", model.m)
    posterior = model.posteriors(event) if args.method == "exact" else odds_posteriors(model, event)
    for i in range(1, model.n + 1) if args.all else (args.hypothesis,):
        text = _format_value(posterior(i), args.approx, i)
        print(f"H{i}: {text}" if args.all else text)
    return 0


def cmd_example(args) -> int:
    from .construct import example_model

    if args.output:
        dump(example_model(args.name), args.output)
    else:
        sys.stdout.write(dumps(example_model(args.name)))
    return 0


def _print_sweep_counts(result, stream) -> None:
    print(f"models-enumerated: {result.models_enumerated}", file=stream)
    print(f"models-satisfying-assumptions: {result.models_satisfying_all}", file=stream)
    print(f"witnesses-with-updating: {result.witnesses_with_updating}", file=stream)
    print(f"multiple-updating-violations: {len(result.theorem_violations)}", file=stream)


def cmd_sweep(args) -> int:
    from .construct import from_conditionals
    from .sweep import SweepConfig, spec_from_grid, sweep, witness_filename

    config = SweepConfig(
        n=args.n,
        m=args.m,
        denominator=args.denominator,
        require_condition1=args.require_condition1,
    )
    on_survivor = None
    if args.witness_dir is not None:
        witness_dir, made = Path(args.witness_dir), False

        def on_survivor(priors, digits):  # a refusal before any work makes no directory
            nonlocal made
            if not made:
                witness_dir.mkdir(parents=True, exist_ok=True)
                made = True
            spec = spec_from_grid(priors, digits, config.denominator)
            dump(from_conditionals(spec), witness_dir / witness_filename(priors, digits))

    try:
        result = sweep(config, max_models=args.max_models, on_survivor=on_survivor)
    except SweepLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_sweep_counts(exc.partial, sys.stderr)
        return 3
    if on_survivor is not None:  # also made when no model survives
        witness_dir.mkdir(parents=True, exist_ok=True)
    _print_sweep_counts(result, sys.stdout)
    for violation in result.theorem_violations:
        j1, j2 = violation.evidence
        print(
            f"  violation: H{violation.hypothesis} updated by E{j1} and E{j2} "
            f"in {violation.spec}"
        )
    return 0 if not result.theorem_violations else 1


def cmd_scenario(args) -> int:
    from .audit import _hyp_list, check_assumptions
    from .construct import measurement_scenario
    from .model import Side

    values = _rational_list(args.values, "values")
    weights = _rational_list(args.weights, "weights")
    noise = _noise_map(args.noise)
    thresholds = _rational_list(args.thresholds, "thresholds")
    if len(thresholds) != 2:
        raise ValueError(f"expected two thresholds, got {len(thresholds)}")
    t1, t2 = thresholds
    model = measurement_scenario(
        values, weights, noise, lambda y: y <= t1, lambda z: z <= t2
    )
    dump(model, args.output)
    print(f"wrote {args.output} (hypotheses={model.n}, evidence={model.m})")
    found = check_assumptions(model).independence_violations
    for side, label in ((Side.GIVEN_H, "hypothesis"), (Side.GIVEN_NOT_H, "complement")):
        violated = {v.hypothesis for v in found if v.side is side}
        verdict = f"violated ({_hyp_list(violated)})" if violated else "holds"
        print(f"independence given each {label}: {verdict}")
    return 0


def _audit_arguments(p) -> None:
    p.add_argument("file", help="model file to audit")
    p.add_argument(
        "--pairwise", action="store_true", help="test only size-2 evidence subsets (a weaker check)"
    )
    p.set_defaults(func=cmd_audit)


def _posterior_arguments(p) -> None:
    p.add_argument("file", help="model file")
    p.add_argument(
        "--observe",
        default="",
        help="comma-separated literals E<j>=<0|1>; omitted propositions are unobserved",
    )
    p.add_argument(
        "--method",
        choices=("exact", "odds"),
        default="exact",
        help="direct conditioning on the atom table, or the odds-product scheme",
    )
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "-i", dest="hypothesis", type=_integer_option, help="hypothesis index (1-based)"
    )
    target.add_argument("--all", action="store_true", help="one line per hypothesis")
    p.add_argument(
        "--approx",
        action="store_true",
        help="append a float rendering (display only; the rational is authoritative)",
    )
    p.set_defaults(func=cmd_posterior)


def _example_arguments(p) -> None:
    from .construct import EXAMPLE_NAMES

    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_example)


def _sweep_arguments(p) -> None:
    from .sweep import DEFAULT_MAX_MODELS

    p.add_argument("--n", type=_integer_option, required=True, help="hypothesis count (> 2)")
    p.add_argument("--m", type=_integer_option, required=True, help="evidence count (>= 2)")
    p.add_argument("--denominator", type=_integer_option, required=True, help="grid denominator D")
    p.add_argument(
        "--require-condition1",
        action="store_true",
        help="keep only specs where every all-evidence posterior is nonzero",
    )
    p.add_argument("--witness-dir", help="write each surviving spec as a model file here")
    p.add_argument(
        "--max-models",
        type=_integer_option,
        default=DEFAULT_MAX_MODELS,
        help="enumeration budget before aborting with partial counts",
    )
    p.set_defaults(func=cmd_sweep)


def _scenario_arguments(p) -> None:
    p.add_argument("--values", required=True, help="comma-separated true values (rationals)")
    p.add_argument("--weights", required=True, help="comma-separated prior weights (sum to 1)")
    p.add_argument(
        "--noise",
        required=True,
        help=(
            "comma-separated offset:probability pairs for the instrument error; "
            "use --noise=-1:1/3,... when the first offset is negative"
        ),
    )
    p.add_argument(
        "--thresholds",
        required=True,
        help="T1,T2: first proposition is reading1 <= T1, second is reading2 <= T2",
    )
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.set_defaults(func=cmd_scenario)


#: name -> (help line, function that gives the command's parser its arguments)
_COMMANDS = {
    "audit": ("check a model file against the updating assumptions", _audit_arguments),
    "posterior": ("posterior probabilities for a model", _posterior_arguments),
    "example": ("emit a bundled example model", _example_arguments),
    "sweep": ("enumerate a conditional grid and verify single-updating", _sweep_arguments),
    "scenario": ("build a two-instrument measurement model", _scenario_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddsaudit",
        description=(
            "Exact-arithmetic auditing of likelihood-ratio odds updating over "
            "partitioned hypothesis models."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(commands.add_parser(name, help=help_line))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with only the parser of the command
    argv starts with: the tree hands it the rest by this same ``parse_known_args``.
    An argv with leftover strings, or not led by a command, goes to the tree."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"oddsaudit {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, leftover = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not leftover:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModelError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
