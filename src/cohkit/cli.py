"""Command-line interface.

Verbs: ``measure``, ``roc-solve``, ``theorem1``, ``fig1``, ``fig2``,
``fig3``, ``result2``, ``validate``. Each experiment verb runs one
:class:`~cohkit.experiments.Experiment` on the shared sampling harness over
``--threads`` worker processes and writes CSV plus a JSON metadata sidecar
into ``--out``. The sampling verbs (the experiments and ``validate``) accept
``--seed`` and record it in whatever they emit.

Exit codes: 0 success (and ``validate`` all-pass), 1 ``validate`` failure,
2 bad input or usage, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__, validation
from .measures import l1_coherence, rel_entropy_coherence, roc
from .sdp import SolveStatus, SolverFailure, build, solve, verify_certificates
from .states import load_density
from .experiments import (
    DEFAULT_ANCILLA_DIM_GRID,
    DEFAULT_DIM_GRID,
    DEFAULT_N_GRID,
    DEFAULT_P_GRID,
    DEFAULT_RANK_GRID,
    Experiment,
    PhiChoice,
    SweepAborted,
    SweepConfig,
    run_and_save,
)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER_FAILURE = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _add_common(parser: argparse.ArgumentParser, samples_default: int | None = None) -> None:
    parser.add_argument("--verbose", action="store_true", help="chatty progress on stderr")
    if samples_default is not None:
        parser.add_argument("--seed", type=int, default=0, help="RNG seed recorded in all output")
        parser.add_argument(
            "--samples", type=int, default=samples_default, help="samples per grid point"
        )


def _add_experiment(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for sample evaluation",
    )
    parser.add_argument("--out", default="results", help="output directory for CSV + metadata")


def _parse_grid(text: str, cast) -> tuple:
    try:
        values = tuple(cast(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid must be a nonempty comma list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohkit",
        description="Coherence measures, the robustness SDP, and reproduction experiments.",
    )
    parser.add_argument("--version", action="version", version=f"cohkit {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, text in (
        ("measure", "all three coherence measures of a serialized state"),
        ("roc-solve", "full robustness SDP solution with certificates"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("state", help="density-matrix JSON file ({dims, re, im})")
        p.add_argument("--tol", type=float, default=1e-8, help="SDP relative gap tolerance")
        _add_common(p)

    p = sub.add_parser("theorem1", help="sigma-family robustness vs. tabulated closed form")
    p.add_argument(
        "--n",
        dest="grid",
        metavar="N",
        type=lambda s: _parse_grid(s, int),
        default=DEFAULT_N_GRID,
        help="comma list of qubit counts",
    )
    _add_common(p, samples_default=20)
    _add_experiment(p)

    p = sub.add_parser("fig1", help="sub-additivity survival under pure-state mixing")
    p.add_argument(
        "--grid",
        type=lambda s: _parse_grid(s, float),
        default=DEFAULT_P_GRID,
        help="comma list of mixing weights",
    )
    p.add_argument(
        "--phi",
        choices=[c.value for c in PhiChoice],
        default=PhiChoice.MAXIMALLY_COHERENT.value,
        help="reference pure state to mix in",
    )
    _add_common(p, samples_default=1000)
    _add_experiment(p)

    p = sub.add_parser("fig2", help="ordering violations vs. dimension")
    p.add_argument(
        "--grid",
        type=lambda s: _parse_grid(s, int),
        default=DEFAULT_DIM_GRID,
        help="comma list of dimensions",
    )
    _add_common(p, samples_default=10000)
    _add_experiment(p)

    p = sub.add_parser("fig3", help="ordering violations vs. rank at fixed dimension")
    p.add_argument(
        "--grid",
        type=lambda s: _parse_grid(s, int),
        default=DEFAULT_RANK_GRID,
        help="comma list of ranks",
    )
    p.add_argument("--dim", type=int, default=10, help="ambient dimension")
    _add_common(p, samples_default=10000)
    _add_experiment(p)

    p = sub.add_parser("result2", help="incoherent-ancilla invariance deviations")
    p.add_argument(
        "--grid",
        type=lambda s: _parse_grid(s, int),
        default=DEFAULT_ANCILLA_DIM_GRID,
        help="comma list of admissible state/ancilla dimensions",
    )
    _add_common(p, samples_default=100)
    _add_experiment(p)

    p = sub.add_parser("validate", help="measure-axiom suite; exit 0 iff all pass")
    _add_common(p, samples_default=100)

    return parser


def _load_state(path: str):
    try:
        return load_density(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: cannot load state from {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT) from exc


def _cmd_measure(args) -> int:
    rho = _load_state(args.state)
    values = {
        "l1": l1_coherence(rho),
        "rel_entropy": rel_entropy_coherence(rho),
        "roc": roc(rho, tol=args.tol),
    }
    for name, mv in values.items():
        print(f"{name} = {_fmt(mv.value)}  (method={mv.method.value})")
    gap = values["roc"].certificate_gap
    print(f"sdp_gap = {_fmt(gap) if gap is not None else 'n/a'}")
    return EXIT_OK


def _cmd_roc_solve(args) -> int:
    rho = _load_state(args.state)
    sol = solve(build(rho), tol=args.tol, verbose=args.verbose)
    report = verify_certificates(sol, rho) if sol.dual_witness is not None else None
    print(f"status = {sol.status.value}")
    print(f"iterations = {sol.iterations}")
    print(f"primal_value = {_fmt(sol.primal_value)}")
    print(f"dual_value = {_fmt(sol.dual_value)}")
    print(f"gap = {_fmt(sol.gap)}")
    print(f"roc = {_fmt(sol.dual_value - 1.0)}")
    print("primal_diag = [" + ", ".join(_fmt(x) for x in sol.primal_diag) + "]")
    if report is not None:
        print(f"primal_feasibility_violation = {_fmt(report.primal_feasibility_violation)}")
        print(f"dual_feasibility_violation = {_fmt(report.dual_feasibility_violation)}")
        print(f"recomputed_gap = {_fmt(report.gap)}")
    if sol.status is not SolveStatus.OPTIMAL:
        print(f"error: solver did not certify optimality ({sol.status.value})", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _experiment_config(args, experiment: Experiment) -> SweepConfig:
    kwargs = dict(experiment=experiment, samples=args.samples, seed=args.seed, grid=args.grid)
    if hasattr(args, "phi"):
        kwargs["pure_state_choice"] = PhiChoice(args.phi)
    if hasattr(args, "dim"):
        kwargs["dim"] = args.dim
    return SweepConfig(**kwargs)


def _cmd_experiment(args, experiment: Experiment) -> int:
    try:
        cfg = _experiment_config(args, experiment)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        csv_path, meta_path = run_and_save(cfg, args.out, workers=args.threads)
    except SweepAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    print(f"wrote {csv_path}")
    print(f"wrote {meta_path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    results = validation.run_all(samples=args.samples, seed=args.seed)
    all_passed = True
    for res in results:
        flag = "PASS" if res.passed else "FAIL"
        print(
            f"{flag} {res.name}: worst {_fmt(res.worst)} vs tol {_fmt(res.tol)} "
            f"({res.checked} instances)"
        )
        all_passed &= res.passed
    print(f"seed = {args.seed}")
    return EXIT_OK if all_passed else EXIT_VALIDATION_FAILED


_EXPERIMENT_VERBS = {
    "theorem1": Experiment.THEOREM1_CHECK,
    "fig1": Experiment.SUBADDITIVITY_SWEEP,
    "fig2": Experiment.ORDERING_VS_DIMENSION,
    "fig3": Experiment.ORDERING_VS_RANK,
    "result2": Experiment.RESULT2_CHECK,
}
_COMMANDS = {"measure": _cmd_measure, "roc-solve": _cmd_roc_solve, "validate": _cmd_validate}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.verb in _EXPERIMENT_VERBS:
            return _cmd_experiment(args, _EXPERIMENT_VERBS[args.verb])
        return _COMMANDS[args.verb](args)
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
