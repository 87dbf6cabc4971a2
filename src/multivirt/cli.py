"""Command-line surface.

Every subcommand reads a diagram from --code (a VGC string) or --name (a
catalog entry) and writes JSON to stdout (--pretty for indented output).
Exit codes: 0 success, 1 domain error or closed stdout, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .colorings import (
    ColoringMode,
    build_system,
    count_colorings,
    enumerate_colorings,
)
from .constructions import covering, extract_component, multiplex
from .errors import MultivirtError, ParseError
from .invariants import invariant_report
from .model import canonical_form, parse_vgc, serialize_vgc
from .moves import MoveSite, apply_move, find_moves, random_walk
from .planar import genus, realize
from .verify import THEOREMS, verify_theorems

# The paper's numbers, each theorem's name with "-" for "_", and "all".
_THEOREM_ALIASES = {
    "1.2": ("linking",),
    "1.3": ("self_writhe",),
    "1.4": ("components",),
    "1.5": ("colorings",),
    **{name.replace("_", "-"): (name,) for name in THEOREMS},
    "all": THEOREMS,
}


def _add_input(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--code", help="diagram as a VGC string")
    g.add_argument("--name", help="catalog entry name")
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")


def _get_diagram(args):
    if args.code is not None:
        return parse_vgc(args.code)
    return catalog.diagram(args.name)


def _json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _emit(args, payload) -> None:
    indent = 2 if getattr(args, "pretty", False) else None
    print(json.dumps(payload, indent=indent, sort_keys=False))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multivirt",
        description="exact engine for multiplexed virtual link diagrams",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a code and echo its normal serialization")
    _add_input(p)

    p = sub.add_parser("canon", help="canonical form over basepoints and relabeling")
    _add_input(p)

    p = sub.add_parser("genus", help="genus of the carrier surface")
    _add_input(p)

    p = sub.add_parser("realize", help="planarize by adding virtual crossings")
    _add_input(p)

    p = sub.add_parser("invariants", help="writhe tables, linking matrix, lambda")
    _add_input(p)

    p = sub.add_parser("multiplex", help="r parallel copies with tiled crossings")
    _add_input(p)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--counts", action="store_true", help="emit crossing counts only")
    p.add_argument("--provenance", action="store_true", help="include the provenance map")

    p = sub.add_parser("cover", help="virtualize real crossings of index not divisible by r")
    _add_input(p)
    p.add_argument("-r", type=int, required=True)

    p = sub.add_parser("component", help="extract one component")
    _add_input(p)
    p.add_argument("-i", type=int, required=True)

    p = sub.add_parser("colorings", help="coloring counts via exact divisor chains")
    _add_input(p)
    p.add_argument("--mode", choices=sorted(m.value for m in ColoringMode), default="fox")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", help="also enumerate solutions")

    p = sub.add_parser("moves", help="find, apply, or randomly walk rewrite sites")
    _add_input(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--find", action="store_true")
    g.add_argument("--apply", metavar="SITE", help="a site as emitted by --find (JSON)")
    g.add_argument("--walk", type=int, metavar="STEPS")
    g.add_argument("--replay", metavar="TRACE", help="a JSON list of sites, applied in order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", nargs="+", default=None)

    p = sub.add_parser("verify", help="check the multiplexing identities")
    p.add_argument("--thm", default="all", choices=sorted(_THEOREM_ALIASES))
    p.add_argument("--names", nargs="+", default=None)
    p.add_argument("--r-max", type=int, default=5)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("catalog", help="list fixtures or show one")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--list", action="store_true")
    g.add_argument("--name")
    p.add_argument("--pretty", action="store_true")
    return ap


def _run(args) -> None:
    cmd = args.command
    if cmd == "parse":
        d = _get_diagram(args)
        _emit(args, {"code": serialize_vgc(d), "components": d.n_components(),
                     "real": d.n_real(), "virtual": d.n_virtual()})
    elif cmd == "canon":
        _emit(args, {"canonical": canonical_form(_get_diagram(args))})
    elif cmd == "genus":
        _emit(args, {"genus": genus(_get_diagram(args))})
    elif cmd == "realize":
        d = realize(_get_diagram(args))
        _emit(args, {"code": serialize_vgc(d), "genus": genus(d)})
    elif cmd == "invariants":
        _emit(args, invariant_report(_get_diagram(args)).to_json())
    elif cmd == "multiplex":
        d = _get_diagram(args)
        out, prov = multiplex(d, args.r)
        if args.counts:
            _emit(args, {"real": out.n_real(), "virtual": out.n_virtual()})
            return
        payload = {"code": serialize_vgc(out), "components": out.n_components(),
                   "real": out.n_real(), "virtual": out.n_virtual()}
        if args.provenance:
            payload["provenance"] = prov.to_json()
        _emit(args, payload)
    elif cmd == "cover":
        _emit(args, {"code": serialize_vgc(covering(_get_diagram(args), args.r))})
    elif cmd == "component":
        _emit(args, {"code": serialize_vgc(extract_component(_get_diagram(args), args.i))})
    elif cmd == "colorings":
        d = _get_diagram(args)
        mode = ColoringMode(args.mode)
        if mode is ColoringMode.CONSTRAINED:
            l2, prov = multiplex(d, 2)
            sysm = build_system(l2, mode, prov)
        else:
            sysm = build_system(d, mode)
        payload = sysm.to_json(moduli=(args.n,))
        payload["count"] = count_colorings(sysm, args.n)
        if args.enumerate:
            payload["solutions"] = [list(c.values) for c in enumerate_colorings(sysm, args.n)]
        _emit(args, payload)
    elif cmd == "moves":
        d = _get_diagram(args)
        if args.find:
            _emit(args, {"sites": [s.to_json() for s in find_moves(d, args.kinds)]})
        elif args.apply is not None:
            site = MoveSite.from_json(_json_arg(args.apply))
            _emit(args, {"code": serialize_vgc(apply_move(d, site))})
        elif args.replay is not None:
            trace = _json_arg(args.replay)
            if not isinstance(trace, list):
                raise ParseError("--replay takes a JSON list of move sites")
            for obj in trace:
                d = apply_move(d, MoveSite.from_json(obj))
            _emit(args, {"code": serialize_vgc(d)})
        else:
            out, trace = random_walk(d, args.walk, args.seed, args.kinds)
            _emit(args, {"code": serialize_vgc(out),
                         "trace": [s.to_json() for s in trace]})
    elif cmd == "verify":
        rep = verify_theorems(
            names=args.names,
            r_range=tuple(range(2, args.r_max + 1)),
            n_range=tuple(range(2, args.n_max + 1)),
            theorems=_THEOREM_ALIASES[args.thm],
        )
        _emit(args, rep.to_json())
        if not rep.ok:
            raise MultivirtError("verification failed")
    elif cmd == "catalog":
        if args.name:
            _emit(args, catalog.get(args.name).to_json())
        else:
            _emit(args, {"entries": [catalog.get(n).to_json() for n in catalog.names()]})


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # The ranges of r and n start at 2, so a bound below 2 would verify nothing.
    if args.command == "verify" and min(args.r_max, args.n_max) < 2:
        ap.error("--r-max and --n-max must be at least 2")
    try:
        _run(args)
        sys.stdout.flush()
    except MultivirtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull so
        # the interpreter's own flush at exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
