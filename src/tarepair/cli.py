"""Command-line interface: check, repair, seed, and admissible subcommands.

Exit codes: 0 success (or Safe), 1 violation found (check) / inadmissible
(admissible), 2 usage error, 3 analysis budget exhausted, 4 a repair
candidate failed the semantic repair contract re-check. Output contains
no timestamps or machine details, so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .admissibility import check_admissible
from .checker import Exhausted, check
from .lra import DEFAULT_QE_BUDGET
from .modelio import (
    ModelFormatError,
    TraceDocument,
    TraceStep,
    load_model,
    parse_trace,
    serialize_trace,
    write_report,
    write_repaired_model,
)
from .orchestrator import DEFAULT_MAX_REPAIRS, RepairKind, run
from .seeding import SEED_KINDS, campaign

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_CONTRACT = 4

ALL_KINDS = [k.value for k in RepairKind]


def _budget(text: str) -> int:
    """A budget option's value: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tarepair",
        description="Model checking and minimal syntactic repair of timed automata networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="model-check a timed safety property")
    p_check.add_argument("model", help="model file (JSON)")
    p_check.add_argument("--trace-out", help="write the diagnostic trace to this file")
    p_check.add_argument("--state-budget", type=_budget, default=20_000)

    p_repair = sub.add_parser("repair", help="compute and check syntactic repairs")
    p_repair.add_argument("model")
    p_repair.add_argument("--tdt", help="diagnostic trace file (computed when absent)")
    p_repair.add_argument(
        "--kind", choices=ALL_KINDS + ["all"], default="all", help="repair analysis to run"
    )
    p_repair.add_argument("--out", default="repairs", help="output directory")
    p_repair.add_argument("--max-repairs", type=_budget, default=DEFAULT_MAX_REPAIRS)
    p_repair.add_argument("--qe-budget", type=_budget, default=DEFAULT_QE_BUDGET)
    p_repair.add_argument("--state-budget", type=_budget, default=20_000)
    p_repair.add_argument(
        "--dump-smt", help="debug: write the trace constraint system over delays as SMT-LIB2 text"
    )

    p_seed = sub.add_parser("seed", help="fault-seeding benchmark campaign")
    p_seed.add_argument("model")
    p_seed.add_argument("--kinds", nargs="*", choices=list(SEED_KINDS), default=list(SEED_KINDS))
    p_seed.add_argument("--out", default="seeding", help="output directory")
    p_seed.add_argument("--max-repairs", type=_budget, default=DEFAULT_MAX_REPAIRS)

    p_adm = sub.add_parser("admissible", help="compare the untimed languages of two models")
    p_adm.add_argument("model_a")
    p_adm.add_argument("model_b")
    return parser


def _cmd_check(args) -> int:
    network, prop = load_model(args.model)
    verdict = check(network, prop, args.state_budget)
    if verdict.safe:
        print(f"safe: all {verdict.states_explored} reachable symbolic states satisfy the property")
        return EXIT_OK
    trace = verdict.trace
    print(f"violated: diagnostic trace of length {len(trace)}")
    for j, move in enumerate(trace.steps):
        fired = ", ".join(f"{network.automata[ai].name}.t{ti}" for ai, ti in move)
        locs = ", ".join(
            network.automata[ai].location_names[li]
            for ai, li in enumerate(trace.locations[j + 1])
        )
        print(f"  step {j}: {fired} -> ({locs})")
    if args.trace_out:
        doc = TraceDocument(
            tuple(TraceStep(move) for move in trace.steps),
            trace.locations[0],
            trace.locations[-1],
        )
        Path(args.trace_out).write_text(serialize_trace(doc, network), encoding="utf-8")
        print(f"trace written to {args.trace_out}")
    return EXIT_VIOLATED


def _cmd_repair(args) -> int:
    network, prop = load_model(args.model)
    kinds = ALL_KINDS if args.kind == "all" else [args.kind]
    tdt = None
    if args.tdt:
        doc = parse_trace(Path(args.tdt).read_text(encoding="utf-8"), network)
        if doc.labels is not None:
            raise ModelFormatError(f"{args.tdt}: a repair needs a trace of steps, not a label sequence")
        from .checker import stt_from_moves

        tdt = stt_from_moves(network, [step.fired for step in doc.steps])
    else:
        verdict = check(network, prop, args.state_budget)
        if verdict.safe:
            print("no violation found; nothing to repair")
            return EXIT_OK
        tdt = verdict.trace

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.dump_smt:
        from .encoder import encode

        Path(args.dump_smt).write_text(encode(network, tdt, prop).to_smtlib(), encoding="utf-8")
        print(f"constraint system dumped to {args.dump_smt}")
    runs = []
    for kind in kinds:
        rr = run(
            network,
            prop,
            kind,
            tdt=tdt,
            max_repairs=args.max_repairs,
            qe_budget=args.qe_budget,
            state_budget=args.state_budget,
        )
        ordinal = 0
        for i, cand in enumerate(rr.candidates):
            ordinal += 1
            path = write_repaired_model(network, prop, cand, out_dir, ordinal)
            print(f"wrote {path}")
            if not rr.admissible[i] and rr.witnesses[i] is not None:
                wpath = out_dir / f"witness_{kind}_{ordinal:03d}.json"
                wdoc = TraceDocument((), (), (), rr.witnesses[i])
                wpath.write_text(serialize_trace(wdoc, network), encoding="utf-8")
                rr.witness_files[i] = wpath.name
        runs.append(rr)
    report = write_report(runs, out_dir, model_name=args.model)
    print(f"report written to {report}")
    total = sum(len(r.candidates) for r in runs)
    adm = sum(r.n_admissible for r in runs)
    print(f"{total} repairs computed, {adm} admissible")
    failed = [r for r in runs if r.reason == "contract-violation"]
    for r in failed:
        print(
            f"error: the {r.kind.value} repair {r.rejected.describe_modifications()} "
            "failed the semantic repair contract re-check; that analysis stopped",
            file=sys.stderr,
        )
    return EXIT_CONTRACT if failed else EXIT_OK


def _cmd_seed(args) -> int:
    network, prop = load_model(args.model)
    result = campaign(
        network,
        prop,
        kinds=tuple(args.kinds),
        max_repairs=args.max_repairs,
        model_name=args.model,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "campaign.csv").write_text(result.to_csv(), encoding="utf-8")
    (out_dir / "campaign.txt").write_text(result.to_text(), encoding="utf-8")
    print(result.to_csv().rstrip())
    print(f"details written to {out_dir / 'campaign.txt'}")
    if result.contract_violations:
        print(
            "error: a candidate failed the semantic repair contract re-check in "
            f"{result.contract_violations} of the campaign's repair analyses; see campaign.txt",
            file=sys.stderr,
        )
        return EXIT_CONTRACT
    return EXIT_OK


def _cmd_admissible(args) -> int:
    net_a, _ = load_model(args.model_a)
    net_b, _ = load_model(args.model_b)
    verdict = check_admissible(net_a, net_b)
    if verdict.equal:
        print("equivalent: the untimed languages match")
        return EXIT_OK
    print("inadmissible: untimed languages differ")
    print("witness: " + (" ".join(verdict.witness) if verdict.witness else "(empty word)"))
    return EXIT_VIOLATED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code or 0)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "repair":
            return _cmd_repair(args)
        if args.command == "seed":
            return _cmd_seed(args)
        return _cmd_admissible(args)
    except (OSError, UnicodeDecodeError, ModelFormatError) as e:
        # an unreadable or unwritable path, or a file that is not UTF-8 text
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
