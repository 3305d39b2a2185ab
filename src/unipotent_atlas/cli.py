"""Command-line front end: classes, decompose, richardson, label, verify, tables."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii as _quote  # a str's JSON text

from .balacarter import ClassAnalysis, analyse, analyse_all, diagram_string
from .classes import (
    DEFAULT_ENUM_BOUND,
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    as_so,
    enumerate_classes,
    eps_options,
    is_valid_class,
)
from .decomp import decompose, render_trace
from .errors import InputError, ResourceLimitError
from .oracle import (
    GROUP_CLAIMS,
    VerificationReport,
    check_bounds,
    run_all,
    sweep_claim,
    verify_extra_count,
    verify_proposition,
)
from .partitions import Partition
from .richardson import (
    ParabolicDescriptor,
    enumerate_distinguished_parabolics,
    in_richardson_image,
    parabolic_from_blocks,
    regular_jordan_blocks,
    richardson_jordan_blocks,
)

SCHEMA = "unipotent-atlas/v1"

#: Exit status after the reader closed stdout: 128 + SIGPIPE, as a shell
#: reports a process that signal ended.
EXIT_STDOUT_CLOSED = 141

#: Exit status of a crash: an exception that is neither an input error nor a
#: failed claim (exit 1) nor a closed stdout.
EXIT_INTERNAL_ERROR = 3


def run_guarded(action: Callable[[], int]) -> int:
    """The exit status of action, which prints to stdout, or of what it raised:
    2 after an input error or a resource limit and 3 after a crash, each with
    one line on stderr, and EXIT_STDOUT_CLOSED after the reader closed stdout."""
    try:
        code = action()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at the null device, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    except (InputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash, told apart from a failed claim by its status
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _group_from_args(args) -> GroupSpec:
    try:
        family = Family(args.group)
    except ValueError:
        raise InputError(f"unknown group family {args.group!r} (expected gl, sp, so, or o)")
    char = Char.TWO if args.char == "2" else Char.GOOD
    return GroupSpec(family, args.dim, char)


def _resolve_eps(G: GroupSpec, lam: Partition, eps_text: str | None) -> EpsilonMap:
    """The eps of --eps, with each part it leaves out at its canonical value."""
    options = {x: eps_options(G, x, m) for x, m in lam.multiplicities().items()}
    given = EpsilonMap.parse(eps_text).as_dict() if eps_text else {}
    unknown = set(given) - set(options)
    if unknown:
        raise InputError(f"epsilon given for values {sorted(unknown)} that are not parts of {lam}")
    eps = EpsilonMap(tuple((x, given.get(x, opts[0])) for x, opts in options.items()))
    if not is_valid_class(G, lam, eps):
        raise InputError(f"epsilon {eps} is not admissible for {lam} in {G.describe()}")
    missing = [x for x, opts in options.items() if len(opts) == 2 and x not in given]
    if missing:
        # free values default to the canonical 0; make the choice explicit
        print(
            f"note: eps defaulted to 0 on even parts of even multiplicity {sorted(missing)}",
            file=sys.stderr,
        )
    return eps


def _emit(fmt: str, doc: dict, lines: Iterable[str]) -> None:
    """Print one document: in json format the schema and doc as one indented
    JSON dump, otherwise the command's lines, which are read only then."""
    if fmt == "json":
        print(_json_text({"schema": SCHEMA, **doc}))
    else:
        for line in lines:
            print(line)


#: The JSON text of the three constants, looked up only for None, True and False.
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value) -> str:
    """value's JSON text with a two-space indent, exactly as json.dumps writes it,
    joined from its items' texts (the stdlib writes it token by token in Python).
    A tuple held more than once, as each distinguished remainder's payloads
    are in a classes document, is rendered once per indent depth: the memo,
    local to this call, keys a tuple's text by (id, newline), and value keeps
    every tuple alive while the call runs."""
    memo: dict[tuple[int, str], str] = {}

    def text(value, newline: str) -> str:
        if isinstance(value, str):
            return _quote(value)
        if value is None or value is True or value is False:
            return _JSON_CONSTANTS[value]
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, tuple):
            key = (id(value), newline)
            got = memo.get(key)
            if got is None:
                got = memo[key] = container(value, newline)
            return got
        if isinstance(value, (dict, list)):
            return container(value, newline)
        return json.dumps(value)  # a float, or what json refuses, with its TypeError

    def container(value, newline: str) -> str:
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = newline + "  "
        # str and int items, most of a document, are written in place
        if isinstance(value, dict):
            return "{" + inner + ("," + inner).join([
                f"{_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]}: "  # json's key text
                f"{_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else text(v, inner)}"
                for k, v in value.items()]) + newline + "}"
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
            else text(v, inner) for v in value]) + newline + "]"

    return text(value, "\n")


def _emit_table(rows: list[dict], columns: list[str], fmt: str, payload_key: str, meta: dict) -> None:
    _emit(fmt, {**meta, payload_key: rows}, _table_lines(rows, columns, fmt == "csv"))


def _table_lines(rows: list[dict], columns: list[str], as_csv: bool) -> Iterator[str]:
    cells = [[_plain(row.get(c)) for c in columns] for row in rows]
    if as_csv:
        buf = io.StringIO()
        csv.writer(buf).writerows([columns, *cells])
        yield buf.getvalue()[:-1]  # every row ends in "\r\n"; print writes the last "\n"
        return
    widths = [max(map(len, column)) for column in zip(columns, *cells)]
    for line in (columns, ["-" * w for w in widths], *cells):
        yield "  ".join(cell.ljust(w) for cell, w in zip(line, widths))


def _plain(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def _class_row(C: ClassParam, a: ClassAnalysis | None, payloads: dict | None) -> dict:
    """C's classes row from its analysis (None: no SO data).  With payloads,
    the JSON row: C's JSON, then phi1 and phi2, whose factors and parabolics
    are tuples built once per distinguished remainder and kept in payloads
    (keyed by the analysis's shared RemainderAnalysis); else the table row."""
    full = payloads is not None
    row = C.to_json() if full else {"lambda": str(C.lam), "eps": str(C.eps), "split": C.split_tag}
    if a is None:
        row.update({"extra": None, "label": None, "phi1": None, "phi2": None})
        return row
    row["extra"] = a.is_extra()
    row["label"] = a.label()
    if full:
        shared = payloads.get(a.remainder)
        if shared is None:
            shared = payloads[a.remainder] = (tuple(_phi1_json(a.phi1())["factors"]),
                                              tuple(_phi2_json(a.phi2())["parabolics"]))
        gl = list(a.alpha.parts)
        row["phi1"] = {"gl": gl, "factors": shared[0]}
        row["phi2"] = {"gl": gl, "parabolics": shared[1]}
    else:
        row["phi1"] = a.phi1().describe()
        row["phi2"] = "(" + ")(".join(map(str, a.pieces)) + ")" if a.pieces else "-"
    return row


def _phi1_json(X) -> dict:
    return {
        "gl": list(X.gl_parts.parts),
        "factors": [{"dim": m, "full": f} for m, f in X.cl_parts],
    }


def _phi2_json(P) -> dict:
    return {
        "gl": list(P.gl_parts.parts),
        "parabolics": [
            {"group": d.group.describe(), "c": list(d.c), "m0": d.m0} for d in P.parabolics
        ],
    }


def cmd_classes(args) -> int:
    G = _group_from_args(args)
    max_dim = args.max_dim if args.max_dim is not None else DEFAULT_ENUM_BOUND
    classes = enumerate_classes(G, max_dim=max_dim)
    in_so = [as_so(C) for C in classes]
    analyses = analyse_all(S for S in in_so if S is not None)
    pairs = ((C, next(analyses) if S is not None else None) for C, S in zip(classes, in_so))
    if args.extra_only:  # before the rows are built: a dropped class gets no label
        pairs = ((C, a) for C, a in pairs if a is not None and a.is_extra())
    payloads = {} if args.format == "json" else None
    rows = [_class_row(C, a, payloads) for C, a in pairs]
    meta = {"group": G.describe(), "count": len(rows)}
    _emit_table(rows, ["lambda", "eps", "split", "extra", "label", "phi1", "phi2"], args.format, "classes", meta)
    return 0


def cmd_decompose(args) -> int:
    beta = Partition.parse(args.beta)
    if not beta:
        raise InputError("nothing to decompose: the partition is empty")
    G = GroupSpec(Family(args.group), beta.total, Char.TWO if args.char == "2" else Char.GOOD)
    dec = decompose(beta, G)
    doc = {
        "group": G.describe(),
        "beta": list(beta.parts),
        "beta1": list(dec.beta1.parts),
        "beta2": list(dec.beta2.parts),
        "beta3": list(dec.beta3.parts),
        "trace1": list(dec.trace1.bits),
        "trace2": list(dec.trace2.bits),
    }
    lines = [render_trace(dec.trace1, "beta")]
    if dec.trace2.beta:
        lines += ["", render_trace(dec.trace2, "delta")]
    lines += ["", f"beta1 = {dec.beta1}", f"beta2 = {dec.beta2}", f"beta3 = {dec.beta3}"]
    _emit(args.format, doc, lines)
    return 0


def _parse_levi(text: str, G: GroupSpec) -> ParabolicDescriptor:
    """Parse "1^3,2;m0=1" into a descriptor for G."""
    blocks_text, _, m0_text = text.partition(";")
    m0 = 0
    if m0_text:
        key, _, value = m0_text.partition("=")
        if key.strip() != "m0":
            raise InputError(f"expected 'm0=<k>' after ';', got {m0_text!r}")
        try:
            m0 = int(value)
        except ValueError:
            raise InputError(f"remainder rank m0 must be an integer, got {value.strip()!r}") from None
    blocks = Partition.parse(blocks_text) if blocks_text.strip() not in ("", "0") else Partition()
    c = tuple(blocks.multiplicity(i) for i in range(1, max(blocks.parts, default=0) + 1))
    return ParabolicDescriptor.make(G, c, m0)


def cmd_richardson(args) -> int:
    G = _group_from_args(args)
    if args.invert:
        if args.blocks is None:
            raise InputError("--invert needs --blocks, the Jordan blocks to invert")
        lam = Partition.parse(args.blocks)
        P = parabolic_from_blocks(G, lam)
        doc = {
            "group": G.describe(),
            "blocks": list(lam.parts),
            "levi": P.levi_name(),
            "c": list(P.c),
            "m0": P.m0,
            "diagram": diagram_string(P),
        }
        _emit(args.format, doc, [f"levi: {doc['levi']}", f"descriptor: {P.describe()}",
                                 f"diagram: {doc['diagram']}"])
        return 0
    if not args.levi:
        raise InputError("provide --levi (forward map) or --invert --blocks")
    P = _parse_levi(args.levi, G)
    lam, eps = richardson_jordan_blocks(P)
    member = in_richardson_image(G, lam)
    doc = {
        "group": G.describe(),
        "levi": P.levi_name(),
        "blocks": list(lam.parts),
        "eps": {str(x): v for x, v in eps.items},
        "in_image": member,
    }
    _emit(args.format, doc, [f"blocks: {lam}", f"eps: {eps}",
                             f"in richardson image: {'yes' if member else 'no'}"])
    return 0


def cmd_label(args) -> int:
    G = _group_from_args(args)
    lam = Partition.parse(args.blocks)
    eps = _resolve_eps(G, lam, args.eps)
    C = ClassParam(G, lam, eps)
    a = analyse(C)
    doc = {
        **C.to_json(),
        "label": a.label(),
        "extra": a.is_extra(),
        "phi1": _phi1_json(a.phi1()),
        "phi2": _phi2_json(a.phi2()),
    }
    _emit(args.format, doc, [doc["label"]])
    return 0


def verify_reports(claim: str, max_dim: int | None, surjectivity_max_dim: int | None,
                   max_beta: int | None) -> list[VerificationReport]:
    """The reports of verify --claim claim.  A bound left as None takes its
    default (max_dim 24, surjectivity_max_dim min(max_dim, 16), max_beta 30),
    and all three are checked before any claim runs."""
    max_dim = max_dim if max_dim is not None else 24
    surj = surjectivity_max_dim if surjectivity_max_dim is not None else min(max_dim, 16)
    max_beta = max_beta if max_beta is not None else 30
    check_bounds(max_dim, max_beta, surj)
    if claim == "all":
        return run_all(max_dim=max_dim, surjectivity_max_dim=surj, beta_bound=max_beta)
    if claim == "proposition":
        return [verify_proposition(max_beta)]
    if claim == "extra-counts":
        return [verify_extra_count(GroupSpec(Family.SO, dim, Char.TWO), want)
                for dim, want in ((7, 2), (12, 1), (14, 2), (16, 5))]
    return sweep_claim(claim, max_dim)


def cmd_verify(args) -> int:
    reports = verify_reports(args.claim, args.max_dim, args.surjectivity_max_dim, args.max_beta)
    for rep in reports:
        print(rep.to_json_line())
    failed = [rep for rep in reports if not rep.passed]
    if failed:
        print(f"{len(failed)} claim(s) failed", file=sys.stderr)
        return 1
    return 0


def _table1_rows(dim: int) -> list[dict]:
    rows = []
    cases = [
        (Family.GL, Char.GOOD, dim, False, "GL"),
        (Family.SP, Char.TWO, dim - dim % 2, False, "Sp, p=2"),
        (Family.SP, Char.GOOD, dim - dim % 2, False, "Sp, p odd"),
        (Family.SO, Char.GOOD, dim | 1, False, "SO odd dim, p odd"),
        (Family.SO, Char.TWO, dim | 1, False, "SO odd dim, p=2"),
        (Family.SO, Char.GOOD, dim - dim % 2, False, "SO even dim, p odd"),
        (Family.SO, Char.TWO, dim - dim % 2, False, "SO even dim, p=2"),
        (Family.O, Char.TWO, dim - dim % 2, True, "O non-identity component, p=2"),
    ]
    for family, char, d, nonid, name in cases:
        if d < 1:
            continue
        G = GroupSpec(family, d, char)
        lam, eps = regular_jordan_blocks(G, nonidentity_component=nonid)
        rows.append({"case": name, "group": G.describe(), "blocks": str(lam), "eps": str(eps)})
    return rows


def cmd_tables(args) -> int:
    if args.dim is not None and args.dim < 1:
        raise InputError(f"--dim must be at least 1, got {args.dim}")
    if args.which == 1:
        rows = _table1_rows(12 if args.dim is None else args.dim)
        _emit_table(rows, ["case", "group", "blocks", "eps"], args.format, "rows",
                    {"table": 1})
        return 0
    if args.which in (2, 3):
        if not args.group or not args.dim:
            raise InputError("tables 2 and 3 need --group and --dim")
        G = _group_from_args(args)
        if args.which == 2:
            rows = []
            for P in enumerate_distinguished_parabolics(G):
                lam, eps = richardson_jordan_blocks(P)
                rows.append({
                    "levi": P.levi_name(),
                    "descriptor": P.describe(),
                    "blocks": str(lam),
                    "eps": str(eps),
                })
            _emit_table(rows, ["levi", "descriptor", "blocks", "eps"], args.format, "rows",
                        {"table": 2, "group": G.describe()})
        else:
            # the image of table 2's map, at one forward evaluation per
            # descriptor; sorted decreasing, as the partitions are enumerated
            image = {
                richardson_jordan_blocks(P)[0]
                for P in enumerate_distinguished_parabolics(G, max_rank=G.rank)
            }
            rows = [{"blocks": str(lam)} for lam in sorted(image, reverse=True)]
            _emit_table(rows, ["blocks"], args.format, "rows", {"table": 3, "group": G.describe()})
        return 0
    # table 4: the five extra classes of SO_16 at p=2
    G = GroupSpec(Family.SO, 16, Char.TWO)
    rows = []
    untagged = [C for C in enumerate_classes(G) if C.split_tag != "II"]
    for C, a in zip(untagged, analyse_all(untagged)):
        if not a.is_extra():
            continue
        pieces = " + ".join(str(p) for p in a.pieces)
        rows.append({
            "blocks": str(C.lam),
            "decomposition": f"{a.beta} = {pieces}",
            "label": a.label(),
        })
    _emit_table(rows, ["blocks", "decomposition", "label"], args.format, "rows",
                {"table": 4, "group": G.describe()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unipotent-atlas",
        description="Classify unipotent conjugacy classes of classical groups "
        "(characteristic 2 and odd) via subgroup data.",
    )
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument("--max-dim", type=int, default=None,
                        help="bound for enumeration-driven commands (classes, verify)")
    # the global flags are accepted after the subcommand too; SUPPRESS keeps
    # a value given up front from being overwritten by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json", "csv"], default=argparse.SUPPRESS)
    common.add_argument("--max-dim", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("classes", help="list the unipotent classes of a group")
    p.add_argument("--group", required=True, choices=[f.value for f in Family])
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--char", choices=["2", "odd"], default="2")
    p.add_argument("--extra-only", action="store_true")
    p.set_defaults(func=cmd_classes)

    p = add_parser("decompose", help="decompose distinguished Jordan data with the scan map")
    p.add_argument("beta", help='partition text, e.g. "12,12,10,8,6,6,4,2"')
    p.add_argument("--group", choices=["sp", "so"], default="so")
    p.add_argument("--char", choices=["2", "odd"], default="2")
    p.set_defaults(func=cmd_decompose)

    p = add_parser("richardson", help="Richardson blocks of a distinguished parabolic")
    p.add_argument("--group", required=True, choices=["gl", "sp", "so"])
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--char", choices=["2", "odd"], default="2")
    p.add_argument("--levi", help='descriptor text, e.g. "1^3,2;m0=1"')
    p.add_argument("--invert", action="store_true")
    p.add_argument("--blocks", help="partition text for --invert")
    p.set_defaults(func=cmd_richardson)

    p = add_parser("label", help="label a class from its blocks and eps")
    p.add_argument("--group", required=True, choices=["gl", "sp", "so"])
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--char", choices=["2", "odd"], default="2")
    p.add_argument("--blocks", required=True)
    p.add_argument("--eps")
    p.set_defaults(func=cmd_label)

    p = add_parser("verify", help="run the exhaustive verifiers (JSON lines)")
    p.add_argument("--claim", default="all", choices=["all", *GROUP_CLAIMS, "proposition", "extra-counts"])
    p.add_argument("--surjectivity-max-dim", type=int, default=None)
    p.add_argument("--max-beta", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = add_parser("tables", help="regenerate a block table")
    p.add_argument("which", type=int, choices=[1, 2, 3, 4])
    p.add_argument("--group", choices=["gl", "sp", "so"])
    p.add_argument("--dim", type=int)
    p.add_argument("--char", choices=["2", "odd"], default="2")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_guarded(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
