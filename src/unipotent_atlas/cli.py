"""Command-line front end: classes, decompose, richardson, label, verify, tables."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii as _quote  # a str's JSON text

from .balacarter import ClassAnalysis, analyse, analyse_all, diagram_string, extra_classes
from .classes import (
    Char,
    ClassParam,
    EpsilonMap,
    Family,
    GroupSpec,
    _lambda_admissible,
    as_so,
    enumerate_classes,
    eps_options,
)
from .decomp import decompose, render_trace
from .errors import InputError, ResourceLimitError
from .oracle import BATTERY, GROUP_CLAIMS, SCHEMA, VerificationReport, run_all
from .partitions import Partition
from .richardson import (
    ParabolicDescriptor,
    enumerate_distinguished_parabolics,
    in_richardson_image,
    parabolic_from_blocks,
    regular_jordan_blocks,
    richardson_blocks,
    richardson_jordan_blocks,
)

#: Exit status after the reader closed stdout: 128 + SIGPIPE, as a shell
#: reports a process that signal ended.
EXIT_STDOUT_CLOSED = 141

#: The values of --format.
FORMATS = ("text", "json", "csv")

#: Largest dimension classes enumerates unless its --max-dim raises it.
DEFAULT_ENUM_BOUND = 40

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
    return GroupSpec(Family(args.group), args.dim, Char(args.char))


def _resolve_eps(G: GroupSpec, lam: Partition, eps_text: str | None) -> EpsilonMap:
    """The eps of --eps, with each part it leaves out at its canonical value.
    Blocks that no eps makes a class of G are refused first, then a given
    value outside its part's eps options; the class itself is checked once,
    by the ClassParam that cmd_label builds."""
    mults = lam.multiplicities()
    if not _lambda_admissible(G, lam, mults):
        raise InputError(f"blocks {lam} break the parity rule of {G.describe()}, whatever the eps")
    options = {x: eps_options(G, x, m) for x, m in mults.items()}
    given = EpsilonMap.parse(eps_text).as_dict() if eps_text else {}
    unknown = set(given) - set(options)
    if unknown:
        raise InputError(f"epsilon given for values {sorted(unknown)} that are not parts of {lam}")
    eps = EpsilonMap(tuple((x, given.get(x, opts[0])) for x, opts in options.items()))
    if any(v not in options[x] for x, v in given.items()):
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
    JSON dump, otherwise the command's lines."""
    print(_json_text({"schema": SCHEMA, **doc}) if fmt == "json" else "\n".join(lines))


#: The JSON text of the three constants, looked up only for None, True and False.
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


class _RawJson(str):
    """JSON text, rendered at the depth where it is written, that _json_text writes as it is."""


def _json_text(value, newline: str = "\n") -> str:
    """value's JSON text with a two-space indent, exactly as json.dumps writes
    it when value starts after newline (a newline and its indent), joined from
    its items' texts (the stdlib writes it token by token in Python)."""
    if isinstance(value, str):
        return value if type(value) is _RawJson else _quote(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # a float, or what json refuses, with its TypeError
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    # str and int items, most of a document, are written in place
    if isinstance(value, dict):
        return "{" + inner + ("," + inner).join([
            f"{_quote(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]}: "  # json's key text
            f"{_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _json_text(v, inner)}"
            for k, v in value.items()]) + newline + "}"
    return "[" + inner + ("," + inner).join([
        _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
        else _json_text(v, inner) for v in value]) + newline + "]"


#: The newlines that the rows of a table document, the items of a classes
#: row, and the items of its phi1 and phi2 start after.
_ROW_NEWLINE, _ITEM_NEWLINE, _PAYLOAD_NEWLINE = "\n    ", "\n      ", "\n        "


def _emit_table(rows: Iterable[dict], columns: list[str], fmt: str, payload_key: str, meta: dict) -> None:
    """Print a table document: meta, then rows under payload_key.  In json and
    csv format each row is written as it arrives, so the caller resolves
    whatever can refuse before the first row; in text format the cells are
    collected first, for the column widths.  A json row may be a _RawJson,
    its text already rendered after _ROW_NEWLINE (a classes row is).
    sys.stdout is looked up when the document is written, since callers swap it."""
    if fmt == "json":
        sys.stdout.write(_json_text({"schema": SCHEMA, **meta, payload_key: []})[:-len("[]\n}")])
        sep = "["
        for row in rows:
            sys.stdout.write(sep + _ROW_NEWLINE + _json_text(row, _ROW_NEWLINE))
            sep = ","
        sys.stdout.write("[]\n}\n" if sep == "[" else "\n  ]\n}\n")
        return
    cells = ([_plain(row.get(c)) for c in columns] for row in rows)
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        writer.writerows(cells)
        return
    cells = list(cells)
    widths = [max(map(len, column)) for column in zip(columns, *cells)]
    for line in (columns, ["-" * w for w in widths], *cells):
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))


def _plain(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _class_row(C: ClassParam, a: ClassAnalysis | None) -> dict:
    """C's csv and text classes row from its analysis (None: no SO data)."""
    row = {"lambda": str(C.lam), "eps": str(C.eps), "split": C.split_tag}
    if a is None:
        return {**row, "extra": None, "label": None, "phi1": None, "phi2": None}
    return {**row, "extra": a.is_extra(), "label": a.label(), "phi1": a.phi1().describe(),
            "phi2": "(" + ")(".join(map(str, a.pieces)) + ")" if a.pieces else "-"}


def _ints_text(parts: tuple[int, ...], newline: str) -> str:
    """The JSON text of the int list parts, started after newline."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(str, parts)) + newline + "]" if parts else "[]"


def _class_json_rows(G: GroupSpec, pairs: list[tuple[ClassParam, ClassAnalysis | None]]) -> Iterator[_RawJson]:
    """Each classes row's text after _ROW_NEWLINE, as _json_text writes C.to_json() with
    extra, label, phi1 (_phi1_json) and phi2 (_phi2_json), joined from texts shared
    per document (family, dim, char), per remainder (extra, factors, parabolics; in
    payloads, keyed by the shared RemainderAnalysis, by identity) and per alpha (gl, twice)."""
    item, sub = "," + _ITEM_NEWLINE, "," + _PAYLOAD_NEWLINE
    head = (f'{{{_ITEM_NEWLINE}"family": {_quote(G.family.value)}{item}"dim": {G.dim}'
            f'{item}"char": {_quote(G.char.value)}{item}"lambda": ')
    no_data = f'{item}"extra": null{item}"label": null{item}"phi1": null{item}"phi2": null{_ROW_NEWLINE}}}'
    payloads: dict = {}
    for C, a in pairs:
        eps = ("{" + _PAYLOAD_NEWLINE + sub.join(f'"{x}": {v}' for x, v in C.eps.items) + _ITEM_NEWLINE + "}"
               if C.eps.items else "{}")
        split = "null" if C.split_tag is None else _quote(C.split_tag)
        text = f'{head}{_ints_text(C.lam.parts, _ITEM_NEWLINE)}{item}"eps": {eps}{item}"split": {split}'
        if a is None:
            yield _RawJson(text + no_data)
            continue
        shared = payloads.get(a.remainder)
        if shared is None:  # the texts around the label, and after each gl list
            shared = payloads[a.remainder] = (
                f'{item}"extra": {"true" if a.is_extra() else "false"}{item}"label": ',
                f'{sub}"factors": {_json_text(_phi1_json(a.phi1())["factors"], _PAYLOAD_NEWLINE)}'
                f'{_ITEM_NEWLINE}}}{item}"phi2": {{{_PAYLOAD_NEWLINE}"gl": ',
                f'{sub}"parabolics": {_json_text(_phi2_json(a.phi2())["parabolics"], _PAYLOAD_NEWLINE)}'
                f'{_ITEM_NEWLINE}}}{_ROW_NEWLINE}}}')
        gl = _ints_text(a.alpha.parts, _PAYLOAD_NEWLINE)
        yield _RawJson(f'{text}{shared[0]}{_quote(a.label())}{item}"phi1": {{{_PAYLOAD_NEWLINE}"gl": '
                       f'{gl}{shared[1]}{gl}{shared[2]}')


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
    if args.max_dim < 1:
        raise InputError(f"--max-dim must be at least 1, got {args.max_dim}")
    G = _group_from_args(args)
    if G.dim > args.max_dim:
        raise ResourceLimitError(f"dimension {G.dim} exceeds the enumeration bound {args.max_dim}; "
                                 "pass --max-dim to classes to raise it")
    classes = enumerate_classes(G)
    in_so = [as_so(C) for C in classes]
    if args.extra_only:  # before the rows are built: a dropped class gets no label
        of_so = {S: C for C, S in zip(classes, in_so) if S is not None}
        pairs = [(of_so[S], a) for S, a in extra_classes(of_so)]
    else:
        analyses = analyse_all(S for S in in_so if S is not None)
        pairs = [(C, next(analyses) if S is not None else None) for C, S in zip(classes, in_so)]
    for _, a in pairs:  # a label's refusal (rank past the bound) before the first byte
        if a is not None:
            a.remainder.tokens
    rows = _class_json_rows(G, pairs) if args.format == "json" else (_class_row(C, a) for C, a in pairs)
    meta = {"group": G.describe(), "count": len(pairs)}
    _emit_table(rows, ["lambda", "eps", "split", "extra", "label", "phi1", "phi2"], args.format, "classes", meta)
    return 0


def cmd_decompose(args) -> int:
    beta = Partition.parse(args.beta)
    if not beta:
        raise InputError("nothing to decompose: the partition is empty")
    G = GroupSpec(Family(args.group), beta.total, Char(args.char))
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
    if (args.levi is None) == (args.blocks is None):
        raise InputError("richardson takes exactly one of --levi (the forward map) and --blocks (the inverse)")
    if args.blocks is not None:  # the inverse
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
        lines = [f"levi: {doc['levi']}", f"descriptor: {P.describe()}", f"diagram: {doc['diagram']}"]
    else:
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
        lines = [f"blocks: {lam}", f"eps: {eps}", f"in richardson image: {'yes' if member else 'no'}"]
    _emit(args.format, doc, lines)
    return 0


def cmd_label(args) -> int:
    G = _group_from_args(args)
    lam = Partition.parse(args.blocks)
    C = ClassParam(G, lam, _resolve_eps(G, lam, args.eps))
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


def cmd_verify(args) -> int:
    start = time.perf_counter()
    bounds = {"max_dim": args.max_dim, "surjectivity_max_dim": args.surjectivity_max_dim, "beta_bound": args.max_beta}
    reports = run_all(**{k: v for k, v in bounds.items() if v is not None},
                      claims=BATTERY if args.claim == "all" else (args.claim,))
    for rep in reports:
        print(rep.to_json_line())
    sys.stdout.flush()  # a closed stdout ends the run here, before the summary
    # the summary on stderr: per claim its runs, objects checked, check seconds (summed
    # over every usable CPU, so past the wall time) and status, then its failed groups
    # with their first three counterexamples (a report that checked nothing fails)
    by_claim: dict[str, list[VerificationReport]] = {}
    for rep in reports:
        by_claim.setdefault(rep.claim, []).append(rep)
    for claim, reps in by_claim.items():
        failed = [r for r in reps if not r.passed]
        status = f"{len(failed)} FAILED" if failed else "ok"
        checked, seconds = sum(r.checked for r in reps), sum(r.elapsed_seconds for r in reps)
        print(f"{claim:<28} {len(reps):>4} runs {checked:>8} checked {seconds:>8.2f}s summed  {status}",
              *(f"    {r.group}: {r.counterexamples[:3]}" for r in failed), sep="\n", file=sys.stderr)
    print(f"total: {len(reports)} reports in {time.perf_counter() - start:.1f}s wall", file=sys.stderr)
    return 0 if all(rep.passed for rep in reports) else 1


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
    for flag in {1: ["group", "char"], 4: ["group", "dim", "char"]}.get(args.which, []):
        if getattr(args, flag) is not None:  # a table of fixed groups
            raise InputError(f"tables {args.which} takes no --{flag}")
    if args.dim is not None and args.dim < 1:
        raise InputError(f"--dim must be at least 1, got {args.dim}")
    if args.which == 1:
        rows = _table1_rows(12 if args.dim is None else args.dim)
        _emit_table(rows, ["case", "group", "blocks", "eps"], args.format, "rows", {"table": 1})
        return 0
    if args.which in (2, 3):
        if not args.group or not args.dim:
            raise InputError("tables 2 and 3 need --group and --dim")
        G = GroupSpec(Family(args.group), args.dim, Char(args.char or "2"))
        if args.which == 2:
            # the parabolics are enumerated here, so a refusal comes before the first byte
            rows = ({"levi": P.levi_name(), "descriptor": P.describe(), "blocks": str(lam), "eps": str(eps)}
                    for P in enumerate_distinguished_parabolics(G)
                    for lam, eps in [richardson_jordan_blocks(P)])
            _emit_table(rows, ["levi", "descriptor", "blocks", "eps"], args.format, "rows",
                        {"table": 2, "group": G.describe()})
        else:
            # the image of table 2's map, at one forward evaluation of the
            # block parts per descriptor; sorted decreasing, as the partitions
            # are enumerated, and checked once per row
            image = {richardson_blocks(P) for P in enumerate_distinguished_parabolics(G, max_rank=G.rank)}
            rows = ({"blocks": str(Partition(parts))} for parts in sorted(image, reverse=True))
            _emit_table(rows, ["blocks"], args.format, "rows", {"table": 3, "group": G.describe()})
        return 0
    # table 4: the five extra classes of SO_16 at p=2
    G = GroupSpec(Family.SO, 16, Char.TWO)
    rows = ({"blocks": str(C.lam),
             "decomposition": f"{a.beta} = {' + '.join(map(str, a.pieces))}",
             "label": a.label()} for C, a in extra_classes(enumerate_classes(G)))
    _emit_table(rows, ["blocks", "decomposition", "label"], args.format, "rows",
                {"table": 4, "group": G.describe()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unipotent-atlas",
        description="Classify unipotent conjugacy classes of classical groups "
        "(characteristic 2 and odd) via subgroup data.",
    )
    parser.add_argument("--format", choices=FORMATS, default="text")
    # the document commands take --format after the subcommand too; SUPPRESS keeps
    # a value given up front from being overwritten by the subparser default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("classes", help="list the unipotent classes of a group")
    p.add_argument("--group", required=True, choices=[f.value for f in Family])
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--char", choices=["2", "odd"], default="2")
    p.add_argument("--extra-only", action="store_true")
    p.add_argument("--max-dim", type=int, default=DEFAULT_ENUM_BOUND,
                   help=f"largest dimension to enumerate (default: {DEFAULT_ENUM_BOUND})")
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
    p.add_argument("--levi", help='descriptor text for the forward map, e.g. "1^3,2;m0=1"')
    p.add_argument("--blocks", help="partition text for the inverse, instead of --levi")
    p.set_defaults(func=cmd_richardson)

    p = add_parser("label", help="label a class from its blocks and eps")
    p.add_argument("--group", required=True, choices=["gl", "sp", "so"])
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--char", choices=["2", "odd"], default="2")
    p.add_argument("--blocks", required=True)
    p.add_argument("--eps")
    p.set_defaults(func=cmd_label)

    # verify writes JSON lines whatever the format, so it takes no --format
    p = sub.add_parser("verify", help="run the exhaustive verifiers (JSON lines, a summary on stderr)")
    p.add_argument("--claim", default="all", choices=["all", *BATTERY, "extra-counts"])
    for bound, default in (("max_dim", "24"), ("surjectivity_max_dim", "min(--max-dim, 16)")):
        claims = ", ".join(c for c, entry in GROUP_CLAIMS.items() if entry[0] == bound)
        p.add_argument("--" + bound.replace("_", "-"), type=int, help=f"bound for {claims} (default: {default})")
    p.add_argument("--max-beta", type=int, help="bound for proposition, the decomposition properties (default: 30)")
    p.set_defaults(func=cmd_verify)

    p = add_parser("tables", help="regenerate a block table")
    p.add_argument("which", type=int, choices=[1, 2, 3, 4])
    p.add_argument("--group", choices=["gl", "sp", "so"])
    p.add_argument("--dim", type=int)
    p.add_argument("--char", choices=["2", "odd"], help="for tables 2 and 3 (default: 2)")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    formatted = False
    for arg in argv:  # before the subcommand: --format (or a prefix argparse expands), its value, help
        if not arg.startswith("-") and arg not in FORMATS:
            if arg == "verify" and formatted:  # the top-level parser would take it and verify ignore it
                parser.exit(2, f"{parser.prog}: error: verify writes JSON lines and takes no --format\n")
            break  # the subcommand
        name = arg.partition("=")[0]
        if arg.startswith("-") and name != "-h" and not any(o.startswith(name) for o in ("--format", "--help")):
            # argparse would take its value for the subcommand, or call it unrecognized
            parser.error(f"{name} goes after the subcommand; only --format may come before it")
        formatted = formatted or name.startswith("--f")
    args = parser.parse_args(argv)
    return run_guarded(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
