"""Command-line interface.

Verbs: ``measure``, ``roc-solve``, ``validate`` and the experiment verbs.
Each experiment verb is one row of ``_EXPERIMENT_VERBS``: it runs one
:class:`~cohkit.experiments.Experiment` on the shared sampling harness over
``--threads`` worker processes, at most one per CPU the process may run on,
and writes CSV plus a JSON metadata sidecar into ``--out``; a run aborted
for too many solver failures writes only the sidecar, which lists every
failed draw, and names it after its error line. The sampling
verbs (the experiments and ``validate``) accept ``--seed`` and record it in
whatever they emit. ``--verbose`` is taken where it changes the output:
``roc-solve`` then prints each certified iterate, and an experiment verb
logs one line per grid point, both on stderr.

Exit codes: 0 success (and ``validate`` all-pass), 1 ``validate`` failure,
2 bad input or usage, 3 solver failure.

Importing this module pins BLAS to one thread, as the test suite does,
unless the environment already sets the thread count: threaded LAPACK only
slows the small matrices of these runs. The pin takes effect only if numpy
was not imported before. It then freezes the garbage collector's heap
(``gc.freeze``): the tens of thousands of objects the imports leave live
for the whole run, so no collection during a run traverses them again, and
forked pool workers do not write to their pages.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys

# Before the imports below load numpy; see the module docstring.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import __version__, validation
from .measures import DEFAULT_ROC_TOL, l1_coherence, rel_entropy_coherence, roc
from .sdp import SolveStatus, SolverFailure, build, solve, verify_certificates
from .states import load_density
from .experiments import Experiment, PhiChoice, SweepAborted, SweepConfig, run_and_save

# see the module docstring; no gc.collect() first, as that full pass is the cost avoided
gc.freeze()

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SOLVER_FAILURE = 3

# Per experiment verb: the experiment, the verb's help, the grid flag, the
# type of a grid entry, the default grid (None: every rank up to --dim), the
# grid's help, default --samples.
_EXPERIMENT_VERBS = {
    "theorem1": (
        Experiment.THEOREM1_CHECK, "sigma-family robustness vs. tabulated closed form",
        "--n", int, (1, 2, 3, 4), "comma list of qubit counts", 20,
    ),
    "fig1": (
        Experiment.SUBADDITIVITY_SWEEP, "sub-additivity survival under pure-state mixing",
        "--grid", float, tuple(round(i * 0.02, 2) for i in range(51)),
        "comma list of mixing weights", 1000,
    ),
    "fig2": (
        Experiment.ORDERING_VS_DIMENSION, "ordering violations vs. dimension",
        "--grid", int, tuple(range(2, 11)), "comma list of dimensions", 10000,
    ),
    "fig3": (
        Experiment.ORDERING_VS_RANK, "ordering violations vs. rank at fixed dimension",
        "--grid", int, None, "comma list of ranks (default: 1 to --dim)", 10000,
    ),
    "result2": (
        Experiment.RESULT2_CHECK, "incoherent-ancilla invariance deviations",
        "--grid", int, (2, 3, 4), "comma list of admissible state/ancilla dimensions", 100,
    ),
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _checked(cast, ok, need: str):
    """An argparse type: ``cast(text)``, a usage error unless ``ok`` holds for it."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")
# the tolerances sdp.solve and roc accept, for the reason sdp.check_tol gives
_tol = _checked(float, lambda x: 0 < x < 1, "a number in (0, 1)")


def _add_sampling(parser: argparse.ArgumentParser, samples_default: int) -> None:
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed recorded in all output")
    parser.add_argument(
        "--samples", type=_count, default=samples_default, help="samples per grid point"
    )


def _parse_grid(text: str, cast) -> tuple:
    try:
        values = tuple(cast(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("grid must be a nonempty comma list")
    return values


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can say (a CPU
    affinity mask can exclude most of the host's); the host's count elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        p.add_argument(
            "--tol", type=_tol, default=DEFAULT_ROC_TOL, help="SDP relative gap tolerance"
        )
        if verb == "roc-solve":
            p.add_argument("--verbose", action="store_true", help="chatty progress on stderr")

    for verb, (experiment, text, flag, cast, grid, grid_help, samples) in _EXPERIMENT_VERBS.items():
        p = sub.add_parser(verb, help=text)
        p.add_argument(
            flag,
            dest="grid",
            metavar=flag[2:].upper(),
            type=lambda arg, cast=cast: _parse_grid(arg, cast),
            default=grid,
            help=grid_help,
        )
        if experiment is Experiment.SUBADDITIVITY_SWEEP:
            p.add_argument(
                "--phi",
                choices=[c.value for c in PhiChoice],
                default=SweepConfig.pure_state_choice.value,
                help="reference pure state to mix in",
            )
        if experiment is Experiment.ORDERING_VS_RANK:
            p.add_argument("--dim", type=_count, default=SweepConfig.dim, help="ambient dimension")
        p.add_argument("--verbose", action="store_true", help="chatty progress on stderr")
        _add_sampling(p, samples)
        p.add_argument(
            "--threads",
            type=_count,
            default=_usable_cpus(),
            help="worker processes for sample evaluation, at most one per CPU this "
            "process may run on (default: one per such CPU)",
        )
        p.add_argument("--out", default="results", help="output directory for CSV + metadata")

    p = sub.add_parser("validate", help="measure-axiom suite; exit 0 iff all pass")
    _add_sampling(p, 100)

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

    def print_row(mu: float, primal: float, dual: float) -> bool:
        print(f"{mu!r},{primal!r},{dual!r},{primal - dual!r}", file=sys.stderr)
        return False

    if args.verbose:
        print("mu,primal,dual,gap", file=sys.stderr)
    sol = solve(build(rho), tol=args.tol, accept=print_row if args.verbose else None)
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
        kwargs["grid"] = args.grid or tuple(range(1, args.dim + 1))
    return SweepConfig(**kwargs)


def _cmd_experiment(args, experiment: Experiment) -> int:
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _experiment_config(args, experiment)
        os.makedirs(args.out, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        # a pool forks all its workers at once, and results do not depend on their count
        csv_path, meta_path = run_and_save(cfg, args.out, workers=min(args.threads, _usable_cpus()))
    except SweepAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"wrote {exc.meta_path} (the failed draws)", file=sys.stderr)
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


_COMMANDS = {"measure": _cmd_measure, "roc-solve": _cmd_roc_solve, "validate": _cmd_validate}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb in _EXPERIMENT_VERBS:
            return _cmd_experiment(args, _EXPERIMENT_VERBS[args.verb][0])
        return _COMMANDS[args.verb](args)
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
