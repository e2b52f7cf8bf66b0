"""Command-line front end.

Subcommands: `parse` checks a source file and prints its AST, `lts`
explores the transition graph of a root process, `check` decides
distribution-based or state-based bisimilarity of two roots, `distance`
computes a verified upper bound on their bisimulation distance, and
`bb84` runs the protocol verdicts.

Reports are UTF-8 JSON on stdout; everything addressed to a human goes
to stderr.  Exit codes: 0 success or verdict holds, 1 refuted, 2 usage
or syntax error, 3 I/O error, 4 budget exhausted or model outside the
decidable fragment.  The environment variable QBISIM_TOL supplies the
tolerance when --tol is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import bb84
from . import calculus as ca
from .bisim import (check_ground_bisim_relation, check_lambda_relation,
                    decide_bisim, decide_state_based, distance_upper_bound,
                    replay_refutation)
from .errors import (BudgetExceededError, ChannelDomainError,
                     ConfluenceError, ConvergenceError, CyclicModelError,
                     EvaluationError, ParseError, QuantumInputFragmentError,
                     UnknownOperationError, WellFormednessError)
from .quantum import (DEFAULT_TOL, QuantumState, QubitRegister, load_registry,
                      parse_matrix)
from .semantics import PLTS, System

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4

_BAD_INPUT = (ParseError, WellFormednessError, EvaluationError,
              UnknownOperationError, ChannelDomainError, ValueError)
_BAD_MODEL = (CyclicModelError, QuantumInputFragmentError,
              ConfluenceError, ConvergenceError)


@dataclass
class CommandConfig:
    """Validated bundle of everything a subcommand needs."""

    subcommand: str
    path: str = None
    root: str = None
    left: str = None
    right: str = None
    rho: str = None
    rho_file: str = None
    tol: float = None
    depth: int = None
    max_configs: int = 200_000
    budget: int = 2_000_000
    fmt: str = "json"
    output: str = None
    with_states: bool = False
    replay: bool = False
    flavor: str = "distribution"
    n: int = None
    mode: str = None

    def __post_init__(self):
        if self.tol is not None and not 0.0 < self.tol <= 0.1:
            raise ValueError(f"tolerance {self.tol} outside (0, 0.1]")
        if self.max_configs < 1 or self.budget < 1:
            raise ValueError("budgets must be positive")
        if self.depth is not None and self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be at least 1")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "CommandConfig":
        fields = {k: v for k, v in vars(args).items() if k in cls.__dataclass_fields__}
        if fields.get("tol") is None and os.environ.get("QBISIM_TOL"):
            fields["tol"] = float(os.environ["QBISIM_TOL"])
        return cls(**fields)


def _diag(message: str) -> None:
    print(f"qbisim: {message}", file=sys.stderr)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.buffer.write((text + "\n").encode("utf-8"))
        sys.stdout.buffer.flush()


def _emit_json(obj, path) -> None:
    _emit(json.dumps(obj, indent=2, ensure_ascii=False), path)


def _load_module(path: str) -> ca.Module:
    with open(path, encoding="utf-8") as fh:
        return ca.parse_module(fh.read())


# ---------------------------------------------------------------------------
# root terms and initial states


def _root_term(module: ca.Module, text: str):
    """A named definition, instantiated on its own qubit names, or a term."""
    d = module.definitions.get(text.strip())
    if d is None:
        return ca.parse_term(text)
    if d.cparams:
        raise EvaluationError(
            f"{d.name} takes classical parameters; spell out the call")
    return ca.Call(d.name, (), d.qparams)


def _assignment(rho: str) -> dict:
    out = {}
    for part in (rho or "").split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, symbol = part.partition("=")
        if not eq:
            raise ValueError(f"bad state assignment {part!r}; expected name=symbol")
        out[name.strip()] = symbol.strip()
    return out


def _initial_state(cfg: CommandConfig, terms):
    """Register and density matrix covering the roots and the request."""
    if cfg.rho_file:
        with open(cfg.rho_file, encoding="utf-8") as fh:
            data = json.load(fh)
        if not (isinstance(data, dict) and isinstance(data.get("register"), list)
                and isinstance(data.get("matrix"), list)
                and all(isinstance(row, list) for row in data["matrix"])):
            raise ValueError(f"{cfg.rho_file}: expected an object with a "
                             "'register' list and a 'matrix' list of rows")
        register = QubitRegister.of(data["register"])
        return register, parse_matrix(data["matrix"])
    assignment = _assignment(cfg.rho)
    names = set(assignment)
    for t in terms:
        names |= ca.qv(t)
    register = QubitRegister.of(names)
    try:
        return register, QuantumState.product(register, assignment)
    except KeyError as exc:
        raise ValueError(str(exc)) from None


def _registry(module: ca.Module, path: str, tol: float) -> dict:
    """The operations of the module's `registry "file"` declarations, each
    file relative to the module file's directory; a later file's operation
    replaces an earlier one of the same name."""
    base = os.path.dirname(os.path.abspath(path))
    registry = {}
    for source in module.registry_sources:
        registry.update(load_registry(os.path.join(base, source), tol))
    return registry


def _build_roots(cfg: CommandConfig, specs):
    """One shared system plus a root configuration per spec string."""
    module = _load_module(cfg.path)
    terms = [_root_term(module, s) for s in specs]
    register, state = _initial_state(cfg, terms)
    tol = DEFAULT_TOL if cfg.tol is None else cfg.tol
    system = System(module, register=register, registry=_registry(module, cfg.path, tol),
                    tol=tol, budget=cfg.budget)
    return system, [system.config(t, state) for t in terms]


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(cfg: CommandConfig) -> int:
    module = _load_module(cfg.path)
    _emit(ca.module_json_str(module), cfg.output)
    return EXIT_OK


def cmd_lts(cfg: CommandConfig) -> int:
    system, (root,) = _build_roots(cfg, [cfg.root])
    if cfg.depth is not None:
        _check_depth(system, root, cfg.depth)
    plts = PLTS(system, root, max_configs=cfg.max_configs)
    if cfg.fmt == "dot":
        _emit(plts.to_dot(), cfg.output)
    elif cfg.fmt == "text":
        lines = [f"{len(plts.configs)} states, {len(plts.edges)} transitions, "
                 f"acyclic={plts.acyclic}"]
        for i, c in enumerate(plts.configs):
            lines.append(f"  {i}: {ca.pretty(c.term)}")
        for src, label, targets in plts.edges:
            arms = " + ".join(f"{float(p):.6g}*{dst}" for p, dst in targets)
            lines.append(f"  {src} --{label}--> {arms}")
        _emit("\n".join(lines), cfg.output)
    else:
        _emit(plts.to_json_str(with_states=cfg.with_states), cfg.output)
    return EXIT_OK


def _check_depth(system, root, depth: int) -> None:
    seen = {root}
    frontier = [root]
    for _ in range(depth):
        nxt = [s for c in frontier for t in system.step(c)
               for s in t.dist.support if s not in seen]
        if not nxt:
            return
        seen.update(nxt)
        frontier = list(dict.fromkeys(nxt))
    if any(s not in seen for c in frontier for t in system.step(c)
           for s in t.dist.support):
        raise BudgetExceededError(
            f"graph does not close within depth {depth}", budget=depth)


def cmd_check(cfg: CommandConfig) -> int:
    system, (left, right) = _build_roots(cfg, [cfg.left, cfg.right])
    if cfg.flavor == "state":
        report = decide_state_based(left, right, system, tol=cfg.tol)
    else:
        report = decide_bisim(system.dirac(left), system.dirac(right),
                              system, tol=cfg.tol)
    replayed = None
    if cfg.replay:
        if report.holds:
            replayed = (report.witness is not None and
                        check_ground_bisim_relation(report.witness, system,
                                                    tol=cfg.tol).holds)
        else:
            replayed = replay_refutation(report, system)
        if not replayed:
            _diag("warning: verdict did not replay independently")
    _emit_json({"command": "check", "flavor": cfg.flavor,
                "left": cfg.left, "right": cfg.right,
                "report": report.to_json(), "replay": replayed}, cfg.output)
    return EXIT_OK if report.holds else EXIT_REFUTED


def cmd_distance(cfg: CommandConfig) -> int:
    system, (left, right) = _build_roots(cfg, [cfg.left, cfg.right])
    bound = distance_upper_bound(system.dirac(left), system.dirac(right),
                                 system, tol=cfg.tol)
    replayed = None
    if cfg.replay:
        replayed = check_lambda_relation(bound.witness, bound.value, system,
                                         tol=cfg.tol).holds
        if not replayed:
            _diag("warning: witness did not replay independently")
    _emit_json({"command": "distance", "left": cfg.left, "right": cfg.right,
                "bound": bound.to_json(), "replay": replayed}, cfg.output)
    return EXIT_OK


def cmd_bb84(cfg: CommandConfig) -> int:
    if cfg.mode == "security":
        report = bb84.security_report(cfg.n, tol=cfg.tol)
        ok = report["verdict"] == "secure"
    else:
        report = bb84.soundness_report(cfg.n, tol=cfg.tol)
        ok = report["holds"]
    _emit_json({"command": "bb84", **report}, cfg.output)
    return EXIT_OK if ok else EXIT_REFUTED


# ---------------------------------------------------------------------------
# argument parsing


def _model_options(p, *, tolerance=True):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--rho", metavar="ASSIGN",
                       help='initial product state, e.g. "q1=0,q2=+"; '
                            "unlisted qubits start in |0>")
    group.add_argument("--rho-file", metavar="FILE", dest="rho_file",
                       help="JSON file with register and density matrix")
    if tolerance:
        p.add_argument("--tol", type=float, default=None,
                       help="numerical tolerance in (0, 0.1]")
    p.add_argument("--budget", type=int, default=2_000_000, metavar="N",
                   help="work budget per query for the semantics engine")
    p.add_argument("--output", metavar="FILE", help="write the report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbisim",
        description="bisimilarity and distance checking for quantum processes")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse", help="parse a source file and print its AST")
    p.add_argument("path", help="module source file")
    p.add_argument("--output", metavar="FILE")

    p = sub.add_parser("lts", help="explore the transition graph of a root")
    p.add_argument("path", help="module source file")
    p.add_argument("--root", required=True,
                   help="definition name or process term")
    p.add_argument("--format", choices=("json", "dot", "text"),
                   default="json", dest="fmt")
    p.add_argument("--depth", type=int, default=None,
                   help="fail unless the graph closes within this depth")
    p.add_argument("--with-states", action="store_true", dest="with_states",
                   help="include density matrices in the JSON output")
    p.add_argument("--max-configs", type=int, default=200_000,
                   dest="max_configs", metavar="N",
                   help="state budget for graph exploration")
    _model_options(p, tolerance=False)

    p = sub.add_parser("check", help="decide bisimilarity of two roots")
    p.add_argument("path", help="module source file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--flavor", choices=("distribution", "state"),
                   default="distribution")
    p.add_argument("--replay", action="store_true",
                   help="re-verify the verdict through an independent check")
    _model_options(p)

    p = sub.add_parser("distance", help="bound the bisimulation distance")
    p.add_argument("path", help="module source file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--replay", action="store_true",
                   help="re-verify the witness at the reported bound")
    _model_options(p)

    p = sub.add_parser("bb84", help="verify the key-distribution protocol")
    p.add_argument("--n", type=int, required=True,
                   help="number of transmitted qubits")
    p.add_argument("--mode", choices=("soundness", "security"),
                   default="soundness")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", metavar="FILE")

    return ap


_DISPATCH = {
    "parse": cmd_parse,
    "lts": cmd_lts,
    "check": cmd_check,
    "distance": cmd_distance,
    "bb84": cmd_bb84,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = CommandConfig.from_args(args)
        return _DISPATCH[cfg.subcommand](cfg)
    except BudgetExceededError as exc:
        _diag(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except _BAD_MODEL as exc:
        _diag(f"model not handled: {exc}")
        return EXIT_BUDGET
    except _BAD_INPUT as exc:
        _diag(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _diag(f"i/o error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
