"""Command-line interface: classify, dim, and sweep subcommands.

Exit codes: 0 ok, 2 usage or configuration problem, 3 integrity failure,
4 property violation in a sweep, 5 search budget exhausted.  A reader that
closes stdout early (``adlv sweep ... | head``) ends the run quietly with
exit code 0: the rest of the output goes to ``os.devnull``.  Text output
prints exact values with ``str``: an integral ``Fraction`` as an integer and
an empty variety as ``EMPTY``.

The class polynomial disk cache is a one-line JSON header followed by one
record per element, ``ClassPolyTable.jsonable()`` as JSON.  A file whose
header does not match the run is neither read nor written.  A record that
is not JSON, that ``ClassPolyTable.from_jsonable`` rejects, or whose element
literal does not parse is skipped.  The tables finished before a run
exhausts its budget or its reader closes stdout are saved too.  The
environment variable ``ADLV_CACHE`` names the cache when ``--cache`` is not
given; ``--cache`` wins when both are set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .errors import BudgetError, ConfigError, IntegrityError
from .roots import build_root_datum
from .elements import (
    DiagramAut,
    element_literal,
    elements_of_length,
    omega_group,
    parse_element,
    translation,
)
from .conjugacy import (
    enumerate_straight_classes,
    is_superstraight_class,
    kottwitz_class,
    reduce_to_minimal,
)
from .hecke import ClassPolyEngine, ClassPolyTable, verify_path_independence
from .dimension import (
    EMPTY,
    BElement,
    DimProfile,
    defect_basic,
    dim_grassmannian,
    mazur_check,
)

SCHEMA_VERSION = 1
CACHE_FORMAT = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_VIOLATIONS = 4
EXIT_BUDGET = 5


@dataclass
class JobConfig:
    type_label: str
    delta_images: tuple[int, ...] | None
    fmt: str = "text"
    cache: str | None = None
    seed: int = 0
    budget: int = 10**6

    def datum(self):
        return build_root_datum(self.type_label)

    def delta(self):
        datum = self.datum()
        if self.delta_images is None:
            return DiagramAut.identity(datum)
        if len(self.delta_images) != datum.rank:
            raise ConfigError("delta spec must list an image for every simple label")
        return DiagramAut.from_one_based(datum, self.delta_images)


def _parse_delta_arg(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"cannot parse delta spec {text!r}") from exc


def _config_from_args(args) -> JobConfig:
    cache = getattr(args, "cache", None) or os.environ.get("ADLV_CACHE") or None
    return JobConfig(
        type_label=args.type,
        delta_images=_parse_delta_arg(getattr(args, "delta", None)),
        fmt=getattr(args, "format", "text"),
        cache=cache,
        seed=getattr(args, "seed", 0),
        budget=getattr(args, "budget", 10**6),
    )


def parse_b(datum, delta, text: str) -> BElement:
    text = text.strip()
    if text in ("unit", "1", "e"):
        return BElement.unit(datum, delta)
    rep = parse_element(datum, text)
    return BElement.from_element(rep, delta, label=text)


# ---------------------------------------------------------------------------
# Class polynomial cache


class TableCache:
    def __init__(self, path: str | None, datum, delta):
        self.path = path
        self.header = {
            "schema_version": SCHEMA_VERSION,
            "format_version": CACHE_FORMAT,
            "type": datum.label,
            "delta": list(delta.perm),
            "library_version": __version__,
        }
        self.datum = datum
        self.loaded = {}  # element -> table, from the records that parse
        self._preexisting: set = set()  # elements the file holds a record of
        self._foreign = False  # the file belongs to another run: leave it be
        if path and os.path.exists(path):
            self._read(path)

    def _read(self, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            self._foreign = True
            return
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = None
        if header != self.header:
            self._foreign = True
            return
        for line in lines[1:]:
            try:  # JSON, record and literal errors are all ValueErrors
                record = ClassPolyTable.from_jsonable(json.loads(line))
                elt = parse_element(self.datum, record.element)
            except (ValueError, RecursionError):  # and JSON nested too deep
                continue
            self.loaded[elt] = record.entries
            self._preexisting.add(elt)

    def preload(self, engine: ClassPolyEngine):
        engine.memo.update(self.loaded)

    @contextmanager
    def saving(self, engine: ClassPolyEngine):
        """Save the engine's tables when the block ends, runs out of budget,
        or loses its reader.

        ``engine.memo`` holds finished tables only, so they stay valid after a
        ``BudgetError`` or a ``BrokenPipeError``; any other failure saves
        nothing.
        """
        try:
            yield
        except (BudgetError, BrokenPipeError):
            self.save(engine)
            raise
        self.save(engine)

    def save(self, engine: ClassPolyEngine):
        if not self.path or self._foreign:
            return
        new_records = []
        for elt, table in engine.memo.items():
            if elt in self._preexisting:
                continue
            self._preexisting.add(elt)
            new_records.append(ClassPolyTable(element_literal(elt), table).jsonable())
        fresh = not os.path.exists(self.path) or not self.loaded
        mode = "a"
        if fresh:
            mode = "w"
        with open(self.path, mode, encoding="utf-8") as fh:
            if fresh:
                fh.write(json.dumps(self.header, sort_keys=True) + "\n")
            for record in new_records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    config = _config_from_args(args)
    datum = config.datum()
    delta = config.delta()
    rows = []
    for rep, desc in enumerate_straight_classes(datum, delta, args.max_length):
        rows.append(
            {
                "rep": element_literal(rep),
                "newton": [str(c) for c in desc.newton],
                "kappa": list(desc.kappa),
                "length": rep.length,
                "straight": True,
                "superstraight": is_superstraight_class(rep, delta),
            }
        )
    out = sys.stdout
    if config.fmt == "json":
        json.dump({"schema_version": SCHEMA_VERSION, "classes": rows}, out,
                  sort_keys=True)
        out.write("\n")
    else:
        out.write("rep\tnewton\tkappa\tlength\tstraight\tsuperstraight\n")
        for row in rows:
            out.write(
                "\t".join(
                    [
                        row["rep"],
                        "(" + ",".join(row["newton"]) + ")",
                        "(" + ",".join(str(c) for c in row["kappa"]) + ")",
                        str(row["length"]),
                        "yes",
                        "yes" if row["superstraight"] else "no",
                    ]
                )
                + "\n"
            )
    return EXIT_OK


def cmd_dim(args) -> int:
    config = _config_from_args(args)
    datum = config.datum()
    delta = config.delta()
    w = parse_element(datum, args.w, strict_reduced=args.strict_reduced)
    b = parse_b(datum, delta, args.b)
    cache = TableCache(config.cache, datum, delta)
    engine = ClassPolyEngine(datum, delta, budget=config.budget)
    cache.preload(engine)
    with cache.saving(engine):
        if args.emit_trace:
            _, trace = reduce_to_minimal(w, delta, budget=config.budget)
            for line in trace.format_lines():
                sys.stdout.write(line + "\n")
        profile = DimProfile(w, delta, engine)
        report = profile.report(b)
        if (b.is_basic or args.defect is not None) and profile.kappa == b.kappa:
            report.virtual_dim = profile.virtual(b, defect=args.defect)
    if config.fmt == "json":
        json.dump(report.jsonable(), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(f"element: {profile.literal}\n")
        sys.stdout.write(f"b: {b.label}\n")
        for c in report.contributions:
            sys.stdout.write(
                f"class {c.rep} len={c.length} deg={c.degree} "
                f"candidate={c.candidate}\n"
            )
        sys.stdout.write(f"dim: {report.dim}\n")
        if report.virtual_dim is not None:
            sys.stdout.write(f"virtual_dim: {report.virtual_dim}\n")
    return EXIT_OK


def _sweep_elements(datum, max_length):
    for n in range(max_length + 1):
        yield from elements_of_length(datum, n)


def _basic_b_set(datum, delta):
    out = {}
    for tau in omega_group(datum):
        b = BElement.from_element(tau, delta, label=element_literal(tau))
        out.setdefault(b.descriptor, b)
    return list(out.values())


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    datum = config.datum()
    delta = config.delta()
    cache = TableCache(config.cache, datum, delta)
    engine = ClassPolyEngine(datum, delta, budget=config.budget)
    cache.preload(engine)
    violations = 0
    skipped = 0
    out = sys.stdout
    check = args.check

    if args.b == "basic-all":
        b_set = _basic_b_set(datum, delta)
    else:
        b_set = [parse_b(datum, delta, tok) for tok in args.b.split(";") if tok]

    with cache.saving(engine):
        if check == "path-independence":
            out.write("element\tlength\tok\n")
            for w in _sweep_elements(datum, args.max_length):
                report = verify_path_independence(
                    w, delta, trials=args.trials, seed=config.seed, engine=engine
                )
                ok = report.ok
                if not ok:
                    violations += 1
                out.write(
                    f"{element_literal(w)}\t{w.length}\t{'yes' if ok else 'NO'}\n"
                )
        elif check in ("ghkr", "upper"):
            out.write("element\tb\tdim\tvirtual\tstatus\n")
            for w in _sweep_elements(datum, args.max_length):
                profile = DimProfile(w, delta, engine)
                for b in b_set:
                    report = profile.ghkr(b)
                    status = "skip"
                    if check == "ghkr":
                        if report.equality_applicable:
                            status = "equal" if report.equality_holds else "VIOLATION"
                    elif report.upper_applicable:
                        status = "ok" if report.upper_holds else "VIOLATION"
                    if status == "VIOLATION":
                        violations += 1
                    if status == "skip":
                        skipped += 1
                    virt = "-" if report.virtual is None else report.virtual
                    out.write(
                        f"{report.element}\t{b.label}\t{report.dim}\t{virt}\t{status}\n"
                    )
        elif check == "mazur":
            out.write("mu\tb\tmazur\tnonempty\tstatus\n")
            J = tuple(range(1, datum.rank + 1))
            for mu in _dominant_box(datum, args.max_length):
                for b in b_set:
                    tau = parse_element(datum, b.label)
                    claim = mazur_check(mu, tau, J, delta)
                    truth = dim_grassmannian(
                        mu, b, delta, engine=engine, cross_check=False
                    ).nonempty
                    ok = claim == truth
                    if not ok:
                        violations += 1
                    out.write(
                        f"{list(mu)}\t{b.label}\t{claim}\t{truth}\t"
                        f"{'ok' if ok else 'VIOLATION'}\n"
                    )
        elif check == "closed-form":
            out.write("mu\tb\tdim\tclosed_form\tstatus\n")
            for mu in _dominant_box(datum, args.max_length):
                for b in b_set:
                    report = dim_grassmannian(mu, b, delta, engine=engine)
                    closed = _grassmannian_closed_form(datum, mu, b, delta)
                    ok = (report.dim == EMPTY and closed is None) or (
                        report.dim != EMPTY
                        and closed is not None
                        and report.dim == closed
                    )
                    if not ok:
                        violations += 1
                    out.write(
                        f"{list(mu)}\t{b.label}\t{report.dim}\t"
                        f"{'-' if closed is None else closed}\t"
                        f"{'ok' if ok else 'VIOLATION'}\n"
                    )
        else:  # pragma: no cover - argparse restricts choices
            raise ConfigError(f"unknown check {check!r}")

    out.write(f"# skipped: {skipped}\n")
    out.write(f"# violations: {violations}\n")
    return EXIT_OK if violations == 0 else EXIT_VIOLATIONS


def _dominant_box(datum, pairing_bound):
    """Dominant coweights with <mu, 2 rho> at most the bound."""
    out = []

    def rec(prefix, i):
        if i == datum.rank:
            mu = tuple(prefix)
            if 0 < len(mu):
                out.append(mu)
            return
        c = 0
        while True:
            mu_try = tuple(prefix + [c] + [0] * (datum.rank - i - 1))
            if sum(a * b for a, b in zip(datum.rho2, mu_try)) > pairing_bound:
                break
            rec(prefix + [c], i + 1)
            c += 1

    rec([], 0)
    return sorted(set(out))


def _grassmannian_closed_form(datum, mu, b, delta):
    """<mu - nu_b, rho> - def(b)/2 for the untwisted basic case, else None."""
    if not delta.is_identity or not b.is_basic:
        return None
    if kottwitz_class(translation(datum, mu), delta) != b.kappa:
        return None
    half = Fraction(1, 2)
    pair = sum(
        Fraction(r) * (Fraction(m) - nb)
        for r, m, nb in zip(datum.rho2, mu, b.newton)
    )
    return half * pair - half * defect_basic(b, delta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adlv",
        description=(
            "Combinatorics of extended affine Weyl groups: straight classes, "
            "class polynomials, and dimensions of affine Deligne-Lusztig "
            "varieties."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, help="type label, e.g. A2 or A1xA1")
        p.add_argument(
            "--delta",
            help="diagram automorphism as comma-separated images of 1..rank",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cache", help="class polynomial cache file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=10**6)

    p = sub.add_parser("classify", help="list straight classes up to a length bound")
    common(p)
    p.add_argument("--max-length", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dim", help="dimension of one X_w(b)")
    common(p)
    p.add_argument("--w", required=True, help="element literal")
    p.add_argument("--b", required=True, help="'unit', 'tau^k', or an element literal")
    p.add_argument("--defect", type=int, help="explicit defect for non-basic b")
    p.add_argument("--emit-trace", action="store_true")
    p.add_argument("--strict-reduced", action="store_true")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("sweep", help="bulk property checks with a violation count")
    common(p)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--b", default="basic-all", help="'basic-all' or ';'-separated literals")
    p.add_argument(
        "--check",
        choices=("ghkr", "upper", "path-independence", "mazur", "closed-form"),
        default="ghkr",
    )
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped, not the computation; silence the final flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
