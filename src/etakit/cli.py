"""Command-line front end.

Verbs: eta, order, span, restrict, nf, basis, sq, wu, push, verify, table.
Exact rationals print as p/q; cyclotomic values in the z^k text format;
verification reports in text or JSON.  Exit status 0 on success, 1 on
computation errors (the error class name is printed), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence

from . import glrverify
from .eta import (EtaValue, LensSpec, ManifoldSpec, Modulus, eta_of,
                  eta_of_float, eta_order, rational_determinant,
                  span_order_lower_bound, thm31_modulus)
from .f2ring import (F2ParseError, PresentedF2Algebra, SteenrodData,
                     circle_bundle_cohomology, circle_bundle_steenrod,
                     d8_to_v2_restriction, dihedral_cohomology,
                     dual_pushforward_map, klein_cohomology,
                     lens_space_cohomology, sd_to_circle_bundle,
                     sd_to_d8_restriction, semidihedral_cohomology,
                     semidihedral_steenrod, stiefel_whitney, wu_classes)
from .grouprep import (NAMED_INCLUSIONS, CharacterTable, InclusionMap,
                       ValidationError, VirtualCharacter, builtin_group,
                       character_table, check_json, check_json_int,
                       named_inclusion, restrict_virtual, table_from_json)
from .infix import parse_infix


class ParseError(ValueError):
    pass


_CHAR_ALIASES = {
    "sd16": {"c8hat": "chi2", "d8hat": "chi3", "q8hat": "chi4", "one": "r0"},
    "q8": {"one": "r0"},
}


# -- configuration ---------------------------------------------------------------


class Config(namedtuple("Config", "degree_bound algebras steenrod tables")):
    """The parsed configuration; each mapping left out is a new empty dict."""

    __slots__ = ()

    def __new__(cls, degree_bound: int = 64, algebras: Optional[dict] = None,
                steenrod: Optional[dict] = None, tables: Optional[dict] = None):
        return super().__new__(cls, degree_bound, {} if algebras is None else algebras,
                               {} if steenrod is None else steenrod,
                               {} if tables is None else tables)


def load_config(path: Optional[str]) -> Config:
    """Read the JSON configuration; absent keys fall back to defaults.  A
    value of the wrong JSON shape ends in a ValidationError."""
    if path is None:
        path = os.environ.get("ETAKIT_CONFIG")
    if path is None:
        return Config()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        return Config()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config: {exc.msg} (line {exc.lineno}, column {exc.colno})")
    data = check_json(data, dict, "the configuration")
    cfg = Config(degree_bound=check_json_int(data.get("degree_bound", 64), "degree_bound"))
    for name, block in check_json(data.get("algebras", {}), dict, "'algebras'").items():
        where = f"algebra {name!r}"
        block = check_json(block, dict, where)
        gens = []
        for g in check_json(block["generators"], list, f"{where}: 'generators'"):
            if not isinstance(g, list) or len(g) != 2:
                raise ValidationError(f"{where}: generator {g!r} is not a [name, degree] pair")
            gens.append((g[0], check_json_int(g[1], f"{where}: the degree of {g[0]!r}")))
        poincare = None
        if "poincare" in block:
            pd = check_json(block["poincare"], dict, f"{where}: 'poincare'")
            poincare = (check_json_int(pd["dimension"], f"{where}: the dimension"), pd["top"])
        relations = check_json(block.get("relations", []), list, f"{where}: 'relations'")
        bound = check_json_int(block.get("degree_bound", cfg.degree_bound),
                               f"{where}: 'degree_bound'")
        try:
            alg = PresentedF2Algebra(f"custom:{name}", gens, relations, degree_bound=bound,
                                     precedence=block.get("precedence"), poincare=poincare)
        except (ValueError, TypeError) as exc:
            if isinstance(exc, F2ParseError):
                raise
            raise ValidationError(f"{where}: {exc}")
        cfg.algebras[name] = alg
        if "steenrod" in block:
            table = {}
            for g, sub in check_json(block["steenrod"], dict, f"{where}: 'steenrod'").items():
                for i, v in check_json(sub, dict, f"{where}: the squares of {g!r}").items():
                    if not isinstance(v, (str, int)):
                        raise ValidationError(f"{where}: Sq^{i}({g}) must be a string "
                                              f"or an integer")
                    table[g, int(i)] = v
            cfg.steenrod[name] = SteenrodData(alg, table)
    for name, block in check_json(data.get("tables", {}), dict, "'tables'").items():
        cfg.tables[name] = table_from_json(block)
    return cfg


# -- small parsers ------------------------------------------------------------------


def parse_character(table: CharacterTable, text: str) -> VirtualCharacter:
    """Virtual characters in the infix grammar of `etakit.infix`: integers,
    irreducible names, +, -, *, ^ and parentheses, e.g. "(2-tau)^2" or
    "4 + rho*rho5 - 2*(rho+rho5)"."""
    aliases = _CHAR_ALIASES.get(table.group.name, {})

    def atom(kind: str, value: str, pos: int) -> VirtualCharacter:
        if kind == "int":
            return table.constant(int(value))
        try:
            return table.irreducible(aliases.get(value, value))
        except KeyError:
            raise ParseError(f"unknown character {value!r} at position {pos}; "
                             f"choose from {', '.join(table.irreducible_names)}")

    return parse_infix(text, atom, lambda msg, pos: ParseError(f"{msg} at position {pos}"))


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {flag} {text.strip()!r}") from None


def _parse_fraction_matrix(text: str) -> list[list[Fraction]]:
    return [[_parse_fraction(x, "--matrix") for x in row.split(",")]
            for row in text.split(";")]


def _custom(tag: str, entries: dict, missing: str):
    """The configured entry a `custom:<name>` tag names; None for other tags."""
    if not tag.startswith("custom:"):
        return None
    name = tag[len("custom:"):]
    if name not in entries:
        raise ValidationError(missing.format(repr(name)))
    return entries[name]


def _resolve_algebra(tag: str, cfg: Config) -> PresentedF2Algebra:
    custom = _custom(tag, cfg.algebras, "no custom algebra {} in the configuration")
    if custom is not None:
        return custom
    if tag == "sd":
        return semidihedral_cohomology(cfg.degree_bound)
    if tag == "d8":
        return dihedral_cohomology(cfg.degree_bound)
    if tag == "v2":
        return klein_cohomology(cfg.degree_bound)
    m = re.fullmatch(r"m(\d+)", tag)
    if m:
        dim = int(m.group(1))
        if dim % 2:
            raise ValidationError("total-space algebras have even dimension")
        return circle_bundle_cohomology(dim // 2, cfg.degree_bound)
    m = re.fullmatch(r"lens(\d+)", tag)
    if m:
        dim = int(m.group(1))
        if dim % 2 == 0:
            raise ValidationError("lens-space algebras have odd dimension")
        return lens_space_cohomology((dim + 1) // 2, cfg.degree_bound)
    raise ValidationError(f"unknown algebra {tag!r}; use sd, d8, v2, m<2n>, "
                          f"lens<2n-1> or custom:<name>")


def _resolve_steenrod(tag: str, algebra: PresentedF2Algebra, branch: str,
                      cfg: Config) -> SteenrodData:
    custom = _custom(tag, cfg.steenrod, "no steenrod data for custom algebra {}")
    if custom is not None:
        return custom
    if tag == "sd":
        return semidihedral_steenrod(algebra)
    if re.fullmatch(r"m(\d+)", tag):
        sq1 = "Z*s" if branch == "spin" else "Z*(t+s)"
        return circle_bundle_steenrod(algebra, sq1)
    raise ValidationError(f"no builtin steenrod data for algebra {tag!r}")


def _character_table_for(tag: str, cfg: Config) -> CharacterTable:
    custom = _custom(tag, cfg.tables, "no custom table {} in the configuration")
    return character_table(tag) if custom is None else custom


# -- command handlers ------------------------------------------------------------------


def _cmd_eta(args, cfg: Config) -> int:
    if args.engine == "quaternion":
        rho = parse_character(character_table("q8"), args.rho)
        spec = ManifoldSpec(quaternion_k=args.k)
    else:
        rho = parse_character(character_table(f"c{args.l}"), args.rho)
        kind = "bundle" if args.engine == "bundle" else "sphere"
        # `eta cyclic` ignores --chern: sphere-kind specs carry no chern data
        chern = _parse_int_tuple(args.chern) if kind == "bundle" and args.chern else None
        spec = ManifoldSpec(lens=LensSpec(args.l, _parse_int_tuple(args.a), kind, chern))
        if rho.dim != 0:  # a lens-space order needs a reduced character
            raise ValueError("lens-space eta requires a virtual dimension zero character")
    if args.float:
        print(f"{eta_of_float(spec, rho):.12g}")
        return 0
    value = eta_of(spec, rho)
    if args.mod == "z":
        modulus = Modulus.Z
    elif args.mod == "2z":
        modulus = Modulus.TWO_Z
    else:
        modulus = thm31_modulus(spec.dimension, rho)
    if args.format == "json":
        print(json.dumps({"value": str(value), "order": eta_order(value, modulus),
                          "modulus": str(modulus),
                          "order_mod_z": eta_order(value, Modulus.Z),
                          "order_mod_2z": eta_order(value, Modulus.TWO_Z)}))
    else:
        print(EtaValue(value, modulus))
    return 0


def _cmd_order(args, cfg: Config) -> int:
    modulus = Modulus.TWO_Z if args.mod == "2z" else Modulus.Z
    print(eta_order(_parse_fraction(args.value, "--value"), modulus))
    return 0


def _cmd_span(args, cfg: Config) -> int:
    rows = _parse_fraction_matrix(args.matrix)
    det = rational_determinant(rows)
    order = span_order_lower_bound(rows)
    if args.format == "json":
        print(json.dumps({"det": str(det), "order": order}))
    else:
        print(f"det = {det} (order {order} mod Z)")
    return 0


def _cmd_restrict(args, cfg: Config) -> int:
    group = builtin_group(args.group)
    sub = builtin_group(args.subgroup)
    if args.images:
        images = {}
        for item in args.images.split(","):
            name, eq, image = item.partition("=")
            if not eq:
                raise ParseError(f"--images item {item!r} is not name=element")
            if name in images:
                raise ParseError(f"--images names the generator {name!r} twice")
            images[name] = image
        inclusion = InclusionMap.from_images(sub, group, images)
    elif (group.name, sub.name) in NAMED_INCLUSIONS:
        inclusion = named_inclusion(group.name, sub.name)
    else:
        raise ValidationError(f"no default inclusion for {sub.name} in "
                              f"{group.name}; pass --images")
    chi = parse_character(_character_table_for(args.group, cfg), args.chi)
    restricted = restrict_virtual(chi, inclusion)
    if args.format == "json":
        print(json.dumps({"coefficients": list(restricted.coeffs),
                          "names": list(restricted.table.irreducible_names)}))
    else:
        print(str(restricted))
    return 0


def _cmd_nf(args, cfg: Config) -> int:
    algebra = _resolve_algebra(args.algebra, cfg)
    print(str(algebra.parse(args.expr)))
    return 0


def _cmd_basis(args, cfg: Config) -> int:
    algebra = _resolve_algebra(args.algebra, cfg)
    mons = [algebra.format_monomial(m) for m in algebra.graded_basis(args.degree)]
    if args.format == "json":
        print(json.dumps(mons))
    else:
        print(" ".join(mons) if mons else "(empty)")
    return 0


def _cmd_sq(args, cfg: Config) -> int:
    algebra = _resolve_algebra(args.algebra, cfg)
    data = _resolve_steenrod(args.algebra, algebra, args.branch, cfg)
    print(str(data.sq(args.i, algebra.parse(args.expr))))
    return 0


def _cmd_wu(args, cfg: Config) -> int:
    algebra = _resolve_algebra(args.algebra, cfg)
    data = _resolve_steenrod(args.algebra, algebra, args.branch, cfg)
    v = wu_classes(algebra, data)
    lines = [f"v{j} = {vj}" for j, vj in enumerate(v)]
    if args.sw:
        w = stiefel_whitney(algebra, data, v)
        lines += [f"w{k} = {wk}" for k, wk in enumerate(w)]
    if args.format == "json":
        print(json.dumps({line.split(" = ")[0]: line.split(" = ")[1]
                          for line in lines}))
    else:
        print("\n".join(lines))
    return 0


def _cmd_push(args, cfg: Config) -> int:
    if args.map == "sd-to-d8":
        build = sd_to_d8_restriction
    elif args.map == "d8-to-v2":
        build = d8_to_v2_restriction
    elif re.fullmatch(r"sd-to-m\d+", args.map):
        build = sd_to_circle_bundle
    else:
        raise ValidationError(f"unknown map {args.map!r}; use sd-to-d8, d8-to-v2 "
                              f"or sd-to-m<2n>")
    src_tag, _, tgt_tag = args.map.partition("-to-")
    hom = build(_resolve_algebra(src_tag, cfg), _resolve_algebra(tgt_tag, cfg))
    push = dual_pushforward_map(hom, args.degree)
    src, tgt = hom.source, hom.target
    if args.format == "json":
        basis = src.graded_basis(args.degree)
        print(json.dumps([[int(s in support) for s in basis] for support in push.values()]))
        return 0
    for t_mon, support in push.items():
        image = " + ".join(f"xi({src.format_monomial(s)})"
                           for s in sorted(support, reverse=True)) or "0"
        print(f"xi({tgt.format_monomial(t_mon)}) -> {image}")
    return 0


def _cmd_verify(args, cfg: Config) -> int:
    report = glrverify.run_report(args.suite)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if not report.failures else 1


def _cmd_table(args, cfg: Config) -> int:
    if args.n is not None:
        orders, rank = glrverify.kerap_lookup(args.n)
        if args.format == "json":
            print(json.dumps({"n": args.n, "one_column": list(orders),
                              "two_column_rank": rank}))
        else:
            print(f"n={args.n}: one-column orders {list(orders)}, "
                  f"two-column rank {rank}")
        return 0
    if args.group is None:
        raise ValidationError("pass --n for the kernel table or --group for "
                              "a character table")
    table = _character_table_for(args.group, cfg)
    if args.format == "json":
        print(json.dumps({
            "group": table.group.name,
            "classes": [{"name": n, "size": s} for n, s in
                        zip(table.group.class_names, table.group.class_sizes)],
            "irreducibles": [{"name": name, "values": [str(v) for v in row]}
                             for name, row in zip(table.irreducible_names, table.rows)],
        }))
    else:
        print(f"{table.group.name}: classes " +
              " ".join(f"{n}(size {s})" for n, s in
                       zip(table.group.class_names, table.group.class_sizes)))
        for name, row in zip(table.irreducible_names, table.rows):
            vals = []
            for v in row:
                r = v.as_rational()
                vals.append(str(r) if r is not None else str(v))
            print(f"  {name}: " + ", ".join(vals))
    return 0


# -- argument wiring ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etakit",
        description="Exact eta invariants, character restrictions, mod-2 "
                    "cohomology normal forms, and the verification report.")
    parser.add_argument("--config", default=None,
                        help="JSON configuration path (or set ETAKIT_CONFIG)")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eta", help="exact eta invariant of a quotient manifold")
    p.add_argument("engine", choices=("cyclic", "bundle", "quaternion"))
    p.add_argument("--l", type=int, default=8, help="cyclic group order")
    p.add_argument("--a", default="1,1", help="odd weight tuple, comma separated")
    p.add_argument("--chern", default=None, help="bundle chern numbers")
    p.add_argument("--k", type=int, default=0, help="quaternion parameter")
    p.add_argument("--rho", required=True, help="virtual character expression")
    p.add_argument("--mod", choices=("auto", "z", "2z"), default="auto")
    p.add_argument("--float", action="store_true", help="double-precision oracle")
    add_format(p)
    p.set_defaults(handler=_cmd_eta)

    p = sub.add_parser("order", help="order of a rational in R/Z or R/2Z")
    p.add_argument("--value", required=True)
    p.add_argument("--mod", choices=("z", "2z"), default="z")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("span", help="determinant order certificate for a matrix")
    p.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ','")
    add_format(p)
    p.set_defaults(handler=_cmd_span)

    p = sub.add_parser("restrict", help="restrict a virtual character to a subgroup")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--images", default=None,
                   help="generator images, e.g. 'i=s^2,j=t*s'")
    p.add_argument("--chi", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_restrict)

    p = sub.add_parser("nf", help="normal form in a presented algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("basis", help="monomial basis of a graded component")
    p.add_argument("--algebra", required=True)
    p.add_argument("--degree", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser("sq", help="Steenrod square of an element")
    p.add_argument("--algebra", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--branch", choices=("spin", "nonspin"), default="spin")
    p.set_defaults(handler=_cmd_sq)

    p = sub.add_parser("wu", help="Wu classes (and optionally Stiefel-Whitney)")
    p.add_argument("--algebra", required=True)
    p.add_argument("--branch", choices=("spin", "nonspin"), default="spin")
    p.add_argument("--sw", action="store_true")
    add_format(p)
    p.set_defaults(handler=_cmd_wu)

    p = sub.add_parser("push", help="dual-basis pushforward in homology")
    p.add_argument("--map", required=True)
    p.add_argument("--degree", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_push)

    p = sub.add_parser("verify", help="run the claim verification report")
    p.add_argument("--suite", default="all",
                   help="all or one of: " + ", ".join(sorted(glrverify.SUITES)))
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", help="reference kernel rows / character tables")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--group", default=None)
    add_format(p)
    p.set_defaults(handler=_cmd_table)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.handler(args, cfg)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
