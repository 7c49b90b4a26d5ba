"""Command-line front end: element I/O, single-shot computations, reports,
verification suites and preimage chains.

Exit codes: 0 success, 1 verification failure, 2 bad input (an unreadable or
malformed element file, nested too deep included, or an unwritable output
path), 3 guardrail exceeded, 4 input outside the null subspace or not
annihilated, 5 internal error (a computed result failed its own check; a bug,
not bad input), 141 stdout closed by its reader (128 + SIGPIPE, as a shell
reports a writer killed by a closed pipe; nothing is printed). main holds
this mapping: the commands raise, and only verify returns a nonzero code, 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, NamedTuple, Optional

# Each command imports the modules it runs when it runs, so that a cold
# process compiles only those: --help and a usage error, which end inside
# parse_args, compile this module alone.
if TYPE_CHECKING:
    from . import hit
    from .modules import Element, ModuleKind


class Config(NamedTuple):
    max_k: int = 4
    max_dim: int = 200000


def load_config(path: Optional[str]) -> Config:
    values = {}
    if path:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, value = (p.strip() for p in line.split("=", 1))
                if key not in Config._fields:
                    raise ValueError(f"unknown config key: {key}")
                values[key] = int(value)
    cfg = Config(**values)
    if cfg.max_k <= 0 or cfg.max_dim <= 0:
        raise ValueError("guardrails must be positive")
    return cfg


class CliError(Exception):
    """A refusal that main reports on stderr and exits with its code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _die(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _parse_kind(tag: str) -> ModuleKind:
    from .modules import ModuleKind

    try:
        return ModuleKind(tag)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown kind {tag!r}")


def _check_arity(s: int) -> None:
    from .modules import MAX_ARITY

    if s > MAX_ARITY:
        raise CliError(3, f"arity s={s} exceeds the largest supported arity {MAX_ARITY}")


def _check_dim(cfg: Config, kind: ModuleKind, s: int, d: int) -> None:
    from .modules import Bidegree, basis_size

    if basis_size(Bidegree(s, d), kind, cfg.max_dim) > cfg.max_dim:
        raise CliError(3, f"{kind.value} bidegree (s,d)=({s},{d}): basis size exceeds max_dim={cfg.max_dim}")
    _check_arity(s)


def _check_order(cfg: Config, k: int) -> None:
    """Refuse an order past max_k (exit 3); a negative order is bad input
    (exit 2)."""
    if k < 0:
        raise ValueError(f"order k={k} must be >= 0")
    if k > cfg.max_k:
        raise CliError(3, f"order k={k} exceeds max_k={cfg.max_k}")


def _check_pieces(cfg: Config, kind: ModuleKind, s: int, d: int, k: int) -> None:
    """Refuse (exit 3) the pieces a query of order k at (s,d) reads: (s,d)
    first, so that a bidegree out of range is named as given, then the
    largest, (s, d + 2^(k+1) - 1), the source of the top spike square."""
    _check_dim(cfg, kind, s, d)
    _check_dim(cfg, kind, s, d + (1 << (k + 1)) - 1)


def _read_element(path: str) -> Element:
    """The element in a JSON file; any failure to read or parse it, nesting
    too deep for the decoder included, is one ValueError."""
    from .modules import element_from_json

    try:
        with open(path) as f:
            return element_from_json(json.load(f))
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"bad element input: {exc}") from exc


def _terms(x: Element) -> str:
    """The terms of x as a refusal names them, e.g. ``5 arity-2 terms``."""
    return f"an arity-{x.s} term" if len(x.support) == 1 else f"{len(x.support)} arity-{x.s} terms"


def _write_element(x: Element, path: Optional[str]) -> None:
    from .modules import element_to_json

    text = json.dumps(element_to_json(x), indent=None, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


# --- subcommands ------------------------------------------------------------

def cmd_basis(args, cfg: Config) -> int:
    from .modules import Bidegree, basis, basis_size

    _check_dim(cfg, args.kind, args.s, args.d)
    b = Bidegree(args.s, args.d)
    count = basis_size(b, args.kind)
    if args.count:
        print(count)
        return 0
    # A listing holds s entries for each of its monomials.
    if count * args.s > cfg.max_dim:
        raise CliError(3, f"listing {count} monomials of arity {args.s} exceeds max_dim={cfg.max_dim} entries")
    monos = basis(b, args.kind)
    if args.json:
        print(json.dumps([list(t) for t in monos]))
    else:
        for t in monos:
            print(list(t))
    return 0


def cmd_sq(args, cfg: Config) -> int:
    from .modules import POSITIVE_KINDS, ExpansionTooLarge, Expansions, sq

    x = _read_element(args.input)
    _check_arity(x.s)
    if x.kind in POSITIVE_KINDS and args.l > x.d:
        # The output would have a negative degree, which no element file has.
        raise ValueError(f"Sq^{args.l} exceeds the degree d={x.d} of a {x.kind.value} element")
    try:
        with Expansions(cfg.max_dim):
            y = sq(x, args.l)
    except ExpansionTooLarge:
        raise CliError(3, f"Sq^{args.l} takes too many Cartan steps on {_terms(x)}, more than max_dim={cfg.max_dim}")
    _write_element(y, args.output)
    return 0


def cmd_subspace(args, cfg: Config) -> int:
    """delta (hit.delta_basis) or image (hit.spike_image_basis).  delta reads
    no piece above (s,d), so only image checks the spike sources."""
    from . import hit
    from .modules import Bidegree, element_to_json

    _check_order(cfg, args.k)
    if args.command == "delta":
        _check_dim(cfg, args.kind, args.s, args.d)
        subspace = hit.delta_basis
    else:
        _check_pieces(cfg, args.kind, args.s, args.d, args.k)
        subspace = hit.spike_image_basis
    b = Bidegree(args.s, args.d)
    sub = subspace(b, args.k, args.kind)
    elems = hit.subspace_elements(sub, b, args.kind)
    if args.json:
        print(json.dumps({"dim": sub.dim, "basis": [element_to_json(e) for e in elems]}))
    else:
        print(f"dim = {sub.dim}")
        for e in elems:
            print(e)
    return 0


REPORT_COLUMNS = ("kind", "s", "d", "k", "dim_delta", "dim_image", "dim_unhit", "degenerate")


def _report_row(rep: hit.DeltaReport) -> dict:
    """One report as its REPORT_COLUMNS row, as unhit and report print it."""
    return dict(zip(REPORT_COLUMNS, (rep.kind.value, rep.bidegree.s, rep.bidegree.d, rep.k,
                                     rep.dim_delta, rep.dim_image, rep.dim_unhit, rep.degenerate)))


def cmd_unhit(args, cfg: Config) -> int:
    from . import hit
    from .modules import Bidegree, element_to_json

    _check_order(cfg, args.k)
    _check_pieces(cfg, args.kind, args.s, args.d, args.k)
    b = Bidegree(args.s, args.d)
    report = hit.unhit_report(b, args.k, args.kind)
    out = _report_row(report)
    if args.witnesses:
        out["witnesses"] = {key: [element_to_json(e) for e in hit.subspace_elements(getattr(report, key), b, args.kind)]
                            for key in ("delta", "image", "unhit")}
    print(json.dumps(out))
    return 0


def cmd_report(args, cfg: Config) -> int:
    from . import hit

    _check_order(cfg, args.k)
    # Refuse a box before computing any of its cells, or listing them.
    ss, ds = range(args.s_min, args.s_max + 1), range(args.d_min, args.d_max + 1)
    if len(ss) * len(ds) > cfg.max_dim:
        raise CliError(3, f"report box of {len(ss) * len(ds)} cells exceeds max_dim={cfg.max_dim}")
    cells = [(s, d) for s in ss for d in ds]
    for s, d in cells:
        _check_pieces(cfg, args.kind, s, d, args.k)
    rows = map(_report_row, hit.sweep(args.kind, cells, args.k))
    if args.format == "json":
        print(json.dumps([*rows]))
    else:
        import csv  # the one branch that needs it

        writer = csv.DictWriter(sys.stdout, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_verify(args, cfg: Config) -> int:
    from . import suites  # the one command that needs it

    if args.suite == "all":
        names = list(suites.SUITES)
    elif args.suite in suites.SUITES:
        names = [args.suite]
    else:
        raise ValueError(f"unknown suite {args.suite!r}; known: {', '.join(suites.SUITES)}, all")
    results = [suites.run(name, args.seed) for name in names]
    summary = {
        "seed": args.seed,
        "suites": [{"name": r.name, "passed": r.passed, "failed": r.failed} for r in results],
        "ok": all(r.ok for r in results),
    }
    print(json.dumps(summary))
    for r in results:
        if not r.ok:
            print(f"FAIL {r.name}: {r.first_failure}", file=sys.stderr)
    return 0 if summary["ok"] else 1


def cmd_preimage(args, cfg: Config) -> int:
    from .homotopy import (  # the one command that needs it
        AnnihilationError, HomotopySystem, NullMembershipError, preimage_chain)
    from .modules import ExpansionTooLarge, Expansions, monomial_str

    x = _read_element(args.input)
    _check_order(cfg, args.k)
    _check_arity(x.s)
    h = HomotopySystem(x.kind, args.k, args.position)
    budget = (args.k + 1) * cfg.max_dim  # one max_dim per spike square checked
    try:
        with Expansions(budget):
            chain = preimage_chain(x, h)
    except ExpansionTooLarge:
        raise CliError(3, f"preimage chain of order k={args.k} takes too many Cartan steps on {_terms(x)}, "
                          f"more than (k+1)*max_dim={budget}")
    except NullMembershipError as exc:
        raise CliError(4, f"element outside null subspace: offending monomial {monomial_str(exc.kind, exc.entries)}")
    except AnnihilationError as exc:
        raise CliError(4, f"element not annihilated: failing i={exc.failing_i}")
    for i, y in enumerate(chain):
        path = f"{args.out_prefix}{i}.json" if args.out_prefix else None
        _write_element(y, path)
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqhit", description=__doc__)
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_piece(p, *names, kind=None):
        """--kind (required unless a default kind is given), then one
        required integer option per name."""
        default = {"required": True} if kind is None else {"default": kind}
        p.add_argument("--kind", type=_parse_kind, **default)
        for name in names:
            p.add_argument(f"--{name}", type=int, required=True)

    p = sub.add_parser("basis", help="list the monomial basis of a bidegree")
    add_piece(p, "s", "d")
    p.add_argument("--count", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("sq", help="apply Sq^l to an element file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", dest="output", default=None)
    p.set_defaults(func=cmd_sq)

    for name, help_text, flag, func in (
        ("delta", "basis of the intersected kernels", "--json", cmd_subspace),
        ("image", "basis of the intersected spike images", "--json", cmd_subspace),
        ("unhit", "per-bidegree quotient report", "--witnesses", cmd_unhit),
    ):
        p = sub.add_parser(name, help=help_text)
        add_piece(p, "s", "d", "k")
        p.add_argument(flag, action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="dimension table over a bidegree box")
    add_piece(p, "k", kind="gamma")
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("preimage", help="constructive spike-square preimages")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--position", type=int, default=1)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_preimage)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; the one place a failure becomes an exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from .modules import InternalInconsistencyError  # past --help and usage errors

    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        return _die(2, f"bad config: {exc}")
    try:
        code = args.func(args, cfg)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except CliError as exc:
        return _die(exc.code, str(exc))
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  That is no bad input: exit
        # as a writer killed by SIGPIPE, and send the interpreter's last
        # flush to /dev/null so that it writes no traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        return _die(2, str(exc))
    except InternalInconsistencyError as exc:
        return _die(5, f"internal error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
