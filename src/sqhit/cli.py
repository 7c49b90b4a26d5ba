"""Command-line front end: element I/O, single-shot computations, reports,
verification suites and preimage chains.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 guardrail
exceeded, 4 input outside the null subspace or not annihilated.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional

from . import hit, suites
from .homotopy import (
    AnnihilationError,
    HomotopySystem,
    NullMembershipError,
    preimage_chain,
)
from .modules import (
    Bidegree,
    Element,
    ModuleKind,
    basis,
    element_from_json,
    element_to_json,
    monomial_str,
    sq,
)

@dataclass
class Config:
    max_k: int = 4
    max_dim: int = 200000


def load_config(path: Optional[str]) -> Config:
    cfg = Config()
    if path:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, value = (p.strip() for p in line.split("=", 1))
                if key == "max_k":
                    cfg.max_k = int(value)
                elif key == "max_dim":
                    cfg.max_dim = int(value)
                else:
                    raise ValueError(f"unknown config key: {key}")
    if cfg.max_k <= 0 or cfg.max_dim <= 0:
        raise ValueError("guardrails must be positive")
    return cfg


def _die(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _parse_kind(tag: str) -> ModuleKind:
    try:
        return ModuleKind(tag)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown kind {tag!r}")


def _basis_size(kind: ModuleKind, s: int, d: int) -> int:
    # Gamma composition count bounds every positive kind.
    if s <= 0:
        return 1 if s == d == 0 else 0
    if d < s:
        return 0
    return math.comb(d - 1, s - 1)


def _check_dim(cfg: Config, kind: ModuleKind, s: int, d: int) -> Optional[str]:
    size = _basis_size(kind, s, d)
    if size > cfg.max_dim:
        return f"basis size {size} exceeds max_dim={cfg.max_dim}"
    return None


def _check_guardrails(cfg: Config, kind: ModuleKind, s: int, d: int, k: int) -> Optional[str]:
    if k > cfg.max_k:
        return f"order k={k} exceeds max_k={cfg.max_k}"
    return _check_dim(cfg, kind, s, d + (1 << (k + 1)))


def _read_element(path: str) -> Element:
    with open(path) as f:
        obj = json.load(f)
    return element_from_json(obj)


def _write_element(x: Element, path: Optional[str]) -> None:
    text = json.dumps(element_to_json(x), indent=None, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as f:
            f.write(text + "\n")


# --- subcommands ------------------------------------------------------------

def cmd_basis(args, cfg: Config) -> int:
    guard = _check_dim(cfg, args.kind, args.s, args.d)
    if guard:
        return _die(3, guard)
    b = Bidegree(args.s, args.d)
    monos = basis(b, args.kind)
    if args.count:
        print(len(monos))
        return 0
    if args.json:
        print(json.dumps([list(t) for t in monos]))
    else:
        for t in monos:
            print(list(t))
    return 0


def cmd_sq(args, cfg: Config) -> int:
    try:
        x = _read_element(args.input)
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        return _die(2, f"bad element input: {exc}")
    y = sq(x, args.l)
    _write_element(y, args.output)
    return 0


def cmd_subspace(args, cfg: Config) -> int:
    """delta or image: args.subspace is hit.delta_basis or hit.spike_image_basis."""
    guard = _check_guardrails(cfg, args.kind, args.s, args.d, args.k)
    if guard:
        return _die(3, guard)
    b = Bidegree(args.s, args.d)
    sub = args.subspace(b, args.k, args.kind)
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
    guard = _check_guardrails(cfg, args.kind, args.s, args.d, args.k)
    if guard:
        return _die(3, guard)
    report = hit.unhit_report(Bidegree(args.s, args.d), args.k, args.kind, witnesses=args.witnesses)
    out = _report_row(report)
    if report.witnesses is not None:
        out["witnesses"] = {key: [element_to_json(e) for e in val]
                            for key, val in report.witnesses.items()}
    print(json.dumps(out))
    return 0


def cmd_report(args, cfg: Config) -> int:
    rows = []
    for s in range(args.s_min, args.s_max + 1):
        for d in range(args.d_min, args.d_max + 1):
            guard = _check_guardrails(cfg, args.kind, s, d, args.k)
            if guard:
                return _die(3, guard)
            rows.append(_report_row(hit.unhit_report(Bidegree(s, d), args.k, args.kind)))
    if args.format == "json":
        print(json.dumps(rows))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    return 0


def cmd_verify(args, cfg: Config) -> int:
    if args.suite == "all":
        names = list(suites.SUITES)
    elif args.suite in suites.SUITES:
        names = [args.suite]
    else:
        return _die(2, f"unknown suite {args.suite!r}; known: {', '.join(suites.SUITES)}, all")
    results = [suites.SUITES[name](args.seed) for name in names]
    summary = {
        "seed": args.seed,
        "suites": [{"name": r.name, "passed": r.passed, "failed": r.failed} for r in results],
        "ok": all(r.ok for r in results),
    }
    print(json.dumps(summary))
    for r in results:
        if not r.ok and r.first_failure:
            print(f"FAIL {r.name}: {r.first_failure}", file=sys.stderr)
    return 0 if summary["ok"] else 1


def cmd_preimage(args, cfg: Config) -> int:
    try:
        x = _read_element(args.input)
    except (json.JSONDecodeError, ValueError, OSError) as exc:
        return _die(2, f"bad element input: {exc}")
    if args.k > cfg.max_k:
        return _die(3, f"order k={args.k} exceeds max_k={cfg.max_k}")
    if not 1 <= args.position <= x.s:
        return _die(2, f"position {args.position} out of range for arity {x.s}")
    h = HomotopySystem(x.kind, args.k, args.position)
    try:
        chain = preimage_chain(x, h)
    except NullMembershipError as exc:
        offending = monomial_str(exc.kind, exc.entries)
        return _die(4, f"element outside null subspace: offending monomial {offending}")
    except AnnihilationError as exc:
        return _die(4, f"element not annihilated: failing i={exc.failing_i}")
    for i, y in enumerate(chain):
        path = f"{args.out_prefix}{i}.json" if args.out_prefix else None
        _write_element(y, path)
    return 0


def cmd_explore(args, cfg: Config) -> int:
    s_range, d_range = range(args.s_min, args.s_max + 1), range(args.d_min, args.d_max + 1)
    for s in s_range:
        for d in d_range:
            guard = _check_dim(cfg, args.kind, s, d + args.l)
            if guard:
                return _die(3, guard)
    rows = hit.ker_vs_im_explorer(args.l, s_range, d_range, args.kind)
    print(json.dumps([{**row, "ker_not_im": [element_to_json(e) for e in row["ker_not_im"]]}
                      for row in rows]))
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqhit", description=__doc__)
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kind(p, default=None):
        kwargs = {"type": _parse_kind, "required": default is None}
        if default is not None:
            kwargs = {"type": _parse_kind, "default": _parse_kind(default)}
        p.add_argument("--kind", **kwargs)

    p = sub.add_parser("basis", help="list the monomial basis of a bidegree")
    add_kind(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("sq", help="apply Sq^l to an element file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", dest="output", default=None)
    p.set_defaults(func=cmd_sq)

    for name, subspace, help_text in (
        ("delta", hit.delta_basis, "basis of the intersected kernels"),
        ("image", hit.spike_image_basis, "basis of the intersected spike images"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_kind(p)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_subspace, subspace=subspace)

    p = sub.add_parser("unhit", help="per-bidegree quotient report")
    add_kind(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(func=cmd_unhit)

    p = sub.add_parser("report", help="dimension table over a bidegree box")
    add_kind(p, default="gamma")
    p.add_argument("--k", type=int, required=True)
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

    p = sub.add_parser("explore-ker-im", help="compare ker Sq^l and im Sq^l")
    add_kind(p, default="gamma")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--d-min", type=int, default=1)
    p.add_argument("--d-max", type=int, required=True)
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        return _die(2, f"bad config: {exc}")
    try:
        return args.func(args, cfg)
    except ValueError as exc:
        return _die(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
