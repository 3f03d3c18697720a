"""Command-line surface: enumeration, construction, and verification.

Commands emit a single output document per invocation as text (default),
CSV, or JSON; every format is byte-identical regardless of the --threads
setting.  JSON documents carry a schema version, the command name, its
semantic parameters, and sorted rows.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 enumeration-budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from collections.abc import Iterator, Sequence

from .construct import ZPair, classify_pair, group_zpairs, inherit, k4_pair
from .core import PitchClassSet, check_int, check_modulus, set_from_composition, steps
from .enumeration import (
    BudgetExceededError,
    RealizationClass,
    SummaryRow,
    k_min_bound,
    k_min_search,
    summary,
    z_groups,
)
from .verify import SUITES, run_suite

SCHEMA_VERSION = "1"


# ── document construction ─────────────────────────────────────────────────


def _doc(command: str, parameters: dict, rows: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "rows": rows,
    }


def _pair_row(pair: ZPair) -> dict:
    return {
        "n": pair.n,
        "set1": list(pair.set1.elements),
        "set2": list(pair.set2.elements),
        "composition1": list(steps(pair.set1).parts),
        "composition2": list(steps(pair.set2).parts),
        "mu_counts": list(pair.mu.counts),
        "mu_multiset": list(pair.mu.as_multiset()),
        "classification": _classification_row(pair),
    }


def _classification_row(pair: ZPair) -> dict:
    if pair.is_primitive:
        return {"kind": "primitive"}
    return {"kind": "derived", "d": pair.scale, "base": _pair_row(pair.base)}


def _group_row(n: int, k: int, index: int, rc: RealizationClass) -> dict:
    comps = rc.realizations
    sets = [set_from_composition(comp) for comp in comps]
    members = [
        {"composition": list(c.parts), "set": list(s.elements), "step_gcd": math.gcd(*c.parts)}
        for c, s in zip(comps, sets)
    ]
    pairs = [
        {"members": [i, j], "classification": _classification_row(pair)}
        for i, j, pair in group_zpairs(sets)
    ]
    mu = rc.mu
    return {
        "index": index,
        "n": n,
        "k": k,
        "mu_counts": list(mu.counts),
        "mu_multiset": list(mu.as_multiset()),
        "members": members,
        "pairs": pairs,
    }


# ── commands ──────────────────────────────────────────────────────────────


def cmd_table(args) -> tuple[dict, int]:
    n = check_modulus(args.n)
    kmin = check_int("kmin", args.kmin, 2, n)
    kmax = check_int("kmax", max(kmin, n // 2) if args.kmax is None else args.kmax, kmin, n)
    ks = range(kmin, kmax + 1)
    rows = [{f: getattr(row, f) for f in TABLE_FIELDS} for row in summary(n, ks, args.threads)]
    return _doc("table", {"n": n, "kmin": kmin, "kmax": kmax}, rows), 0


def cmd_zpairs(args) -> tuple[dict, int]:
    n = check_modulus(args.n)
    k = check_int("k", args.k, 2, n)
    rows = [
        _group_row(n, k, i, rc)
        for i, rc in enumerate(z_groups(n, k, args.threads), start=1)
    ]
    return _doc("zpairs", {"n": n, "k": k}, rows), 0


def cmd_kmin(args) -> tuple[dict, int]:
    n = args.n
    found, searched_to, group = k_min_search(n, args.kmax, args.threads)
    rows = [
        {
            "n": n,
            "k_min": found,
            "k_max_searched": searched_to,
            "witness": None if group is None else _group_row(n, found, 1, group),
        }
    ]
    return _doc("kmin", {"n": n, "kmax": k_min_bound(n, args.kmax)}, rows), 0


def cmd_k4(args) -> tuple[dict, int]:
    pair = k4_pair(args.n, args.a)
    return _doc("k4", {"n": args.n, "a": args.a}, [_pair_row(pair)]), 0


def cmd_scale(args) -> tuple[dict, int]:
    check_int("d", args.d, 1)
    check_int("k", args.k, 2, check_modulus(args.base_n))
    pairs = inherit(args.d * args.base_n, args.base_n, args.k, args.threads)
    rows = [_pair_row(p) for p in pairs]
    params = {"base_n": args.base_n, "d": args.d, "k": args.k}
    return _doc("scale", params, rows), 0


def cmd_classify(args) -> tuple[dict, int]:
    p1 = PitchClassSet(args.n, _parse_set(args.set1))
    p2 = PitchClassSet(args.n, _parse_set(args.set2))
    pair = classify_pair(p1, p2)
    params = {"n": args.n, "set1": list(p1.elements), "set2": list(p2.elements)}
    return _doc("classify", params, [_pair_row(pair)]), 0


def cmd_verify(args) -> tuple[dict, int]:
    results = run_suite(args.suite, args.threads)
    rows = [
        {"check": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
        for r in results
    ]
    code = 0 if all(r.passed for r in results) else 1
    return _doc("verify", {"suite": args.suite}, rows), code


def _parse_set(text: str) -> tuple[int, ...]:
    # Only ASCII decimal digits: int() alone would also take " 1", "+1", "1_1" and "٣".
    tokens = text.split(",")
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"sets are comma-separated residues without whitespace, got {text!r}")
    return tuple(map(int, tokens))


# ── rendering ─────────────────────────────────────────────────────────────


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _fmt_set(elements) -> str:
    return "{" + _joined(elements) + "}"


def _fmt_comp(parts) -> str:
    return "(" + _joined(parts) + ")"


def _fmt_classification(row: dict) -> str:
    if row["kind"] == "primitive":
        return "primitive"
    base = row["base"]
    inner = _fmt_classification(base["classification"])
    return (
        f"derived d={row['d']} from Z{base['n']} "
        f"{_fmt_set(base['set1'])}/{_fmt_set(base['set2'])} [{inner}]"
    )


def _columns(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


TABLE_FIELDS = SummaryRow.__slots__


def _table_lines(params: dict, rows: list[dict]) -> list[str]:
    header = TABLE_FIELDS[1:]
    body = [[str(r[field]) for field in header] for r in rows]
    title = f"composition classes of Z_{params['n']} by cardinality"
    return [title, *_columns([header, *body])]


def _group_lines(rows: list[dict]) -> Iterator[str]:
    for row in rows:
        yield f"group {row['index']}  mu={_fmt_set(row['mu_multiset'])}"
        for member in row["members"]:
            yield f"  {_fmt_comp(member['composition'])}  {_fmt_set(member['set'])}"
        for pair in row["pairs"]:
            i, j = pair["members"]
            yield f"  members {i}-{j}: {_fmt_classification(pair['classification'])}"


def _zpairs_lines(params: dict, rows: list[dict]) -> list[str]:
    return [f"n={params['n']} k={params['k']}: {len(rows)} Z-group(s)", *_group_lines(rows)]


def _group_records(row: dict) -> list[list]:
    return [
        [row["n"], row["k"], row["index"], m, _fmt_comp(member["composition"]),
         _joined(member["set"]), _joined(row["mu_multiset"]), member["step_gcd"]]
        for m, member in enumerate(row["members"])
    ]


def _kmin_lines(params: dict, rows: list[dict]) -> list[str]:
    (row,) = rows
    if row["k_min"] is None:
        return [f"k_min({row['n']}): none up to k={row['k_max_searched']}"]
    return [f"k_min({row['n']}) = {row['k_min']}", "witness:", *_group_lines([row["witness"]])]


def _pair_lines(params: dict, rows: list[dict]) -> Iterator[str]:
    if not rows:
        yield "no Z-pairs found"
    for row in rows:
        yield f"Z{row['n']} pair"
        yield f"  set1 {_fmt_set(row['set1'])}  composition {_fmt_comp(row['composition1'])}"
        yield f"  set2 {_fmt_set(row['set2'])}  composition {_fmt_comp(row['composition2'])}"
        yield f"  mu {_fmt_set(row['mu_multiset'])}"
        yield f"  classification: {_fmt_classification(row['classification'])}"


def _pair_records(row: dict) -> list[list]:
    return [
        [row["n"], _joined(row["set1"]), _joined(row["set2"]),
         _fmt_comp(row["composition1"]), _fmt_comp(row["composition2"]),
         _joined(row["mu_multiset"]), _fmt_classification(row["classification"])]
    ]


def _verify_lines(params: dict, rows: list[dict]) -> Iterator[str]:
    for row in rows:
        mark = "PASS" if row["status"] == "pass" else "FAIL"
        suffix = f"  ({row['detail']})" if row["detail"] else ""
        yield f"{mark} {row['check']}{suffix}"
    passed = sum(1 for r in rows if r["status"] == "pass")
    yield f"{passed}/{len(rows)} checks passed"


_PAIRS = (
    _pair_lines,
    ("n", "set1", "set2", "composition1", "composition2", "mu_multiset", "classification"),
    _pair_records,
)

# command -> (text lines of (parameters, rows), CSV header, CSV records of one
# row); records None means the row's header fields in order.
RENDERERS = {
    "table": (_table_lines, TABLE_FIELDS, None),
    "zpairs": (
        _zpairs_lines,
        ("n", "k", "group", "member", "composition", "set", "mu_multiset", "step_gcd"),
        _group_records,
    ),
    "kmin": (_kmin_lines, ("n", "k_min", "k_max_searched"), None),
    "k4": _PAIRS,
    "scale": _PAIRS,
    "classify": _PAIRS,
    "verify": (_verify_lines, ("check", "status", "detail"), None),
}


# Exact leaf types: a container that holds only these has nothing to indent.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(inner: str):
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _json(value, indent: str) -> str:
    """The bytes of json.dumps(value, indent=2); indent is "\\n" plus the spaces.

    json.dumps with an indent runs the pure-Python encoder, which holds every
    token of the document in one list before joining them: a tracemalloc
    peak of 6.8x the output on the zpairs documents.  Here each container
    joins only its own children, and a container of scalars is one C-encoder
    call, so the peak is 2.0x the output, in about the same time.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = indent + "  "
    is_dict = isinstance(value, dict)
    if is_dict and not all(map(str.__instancecheck__, value)):
        raise TypeError(f"JSON object keys must be str, got {list(value)!r}")
    if all(map(_SCALARS.__contains__, map(type, value.values() if is_dict else value))):
        body = _flat_encoder(inner)(value)[1:-1]
    elif is_dict:
        body = ("," + inner).join(f"{json.dumps(k)}: {_json(v, inner)}" for k, v in value.items())
    else:
        body = ("," + inner).join(_json(v, inner) for v in value)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{inner}{body}{indent}{closing}"


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(doc, "\n") + "\n"
    text, header, records = RENDERERS[doc["command"]]
    if fmt == "text":
        return "\n".join(text(doc["parameters"], doc["rows"])) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in doc["rows"]:
        writer.writerows(records(row) if records else [[row[f] for f in header]])
    return buf.getvalue()


# ── argument parsing and entry point ──────────────────────────────────────


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zrel",
        description="Enumerate and construct Z-related pitch-class sets over Z_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="class/vector/Z counts per cardinality")
    p.add_argument("n", type=int)
    p.add_argument("--kmin", type=int, default=2, help="lowest cardinality (default 2)")
    p.add_argument(
        "--kmax", type=int, default=None, help="highest cardinality (default max(kmin, n//2))"
    )

    p = sub.add_parser("zpairs", help="all Z-groups at one (n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("kmin", help="smallest cardinality admitting a Z-pair")
    p.add_argument("n", type=int)
    p.add_argument(
        "--kmax",
        type=int,
        default=None,
        help="search bound (default n//2, assuming complement symmetry)",
    )

    p = sub.add_parser("k4", help="explicit 4-element Z-pair for n divisible by 4")
    p.add_argument("n", type=int)
    p.add_argument("a", type=int, help="offset, 1 <= a < n/4")

    p = sub.add_parser("scale", help="scale the Z-pairs of Z_m up to Z_{d*m}")
    p.add_argument("base_n", type=int, help="base modulus m")
    p.add_argument("d", type=int, help="scale factor")
    p.add_argument("k", type=int, help="cardinality to enumerate at the base")

    p = sub.add_parser("classify", help="primitive/derived status of a Z-pair")
    p.add_argument("n", type=int)
    p.add_argument("set1", help="comma-separated residues, e.g. 0,1,3,7")
    p.add_argument("set2", help="comma-separated residues, e.g. 0,1,4,6")

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", choices=(*SUITES, "all"))

    for p in sub.choices.values():
        p.add_argument(
            "--format",
            choices=("text", "csv", "json"),
            default="text",
            help="output format (default: text)",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            metavar="N",
            help="worker count for enumeration (default: 1); output is independent of it",
        )
    return parser


COMMANDS = {
    "table": cmd_table,
    "zpairs": cmd_zpairs,
    "kmin": cmd_kmin,
    "k4": cmd_k4,
    "scale": cmd_scale,
    "classify": cmd_classify,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_int("workers", args.threads, 1)
        doc, code = COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(doc, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
