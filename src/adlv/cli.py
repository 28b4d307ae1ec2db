"""Command-line interface: classify, dim, and sweep subcommands.

Every subcommand takes ``--type`` and ``--delta``; the others take only the
options they read.  ``classify``: ``--max-length``, ``--format``.  ``dim``:
``--w``, ``--b``, ``--format``, ``--cache``, ``--budget``, ``--defect``,
``--emit-trace``, ``--strict-reduced``.  ``sweep``: ``--max-length``,
``--check``, ``--b``, ``--cache``, ``--budget``, ``--seed``, ``--trials``;
it writes text only, and each row ends in ``skip`` where the statement of
the check does not apply, else in the check's pass or fail word
(``SWEEP_CHECKS``).  ``dim`` and ``sweep`` run on one class polynomial
engine that ``--cache`` preloads and that is saved when the run ends.

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
literal does not parse is skipped.  New records are appended; only a missing
or empty file gets the header first.  The tables finished before a run
exhausts its budget or its reader closes stdout are saved too.  The
environment variable ``ADLV_CACHE`` names the cache when ``--cache`` is not
given; ``--cache`` wins when both are set.
"""

from __future__ import annotations

import argparse
import fcntl
import itertools
import json
import os
import sys
from contextlib import contextmanager

from . import __version__
from .errors import BudgetError, ConfigError, IntegrityError
from .roots import build_root_datum
from .elements import (
    DiagramAut,
    element_literal,
    elements_of_length,
    identity,
    omega_group,
    parse_element,
)
from .conjugacy import (
    DEFAULT_BUDGET,
    enumerate_straight_classes,
    is_superstraight_class,
    reduce_to_minimal,
)
from .hecke import ClassPolyEngine, ClassPolyTable, verify_path_independence
from .dimension import (
    EMPTY,
    BElement,
    DimProfile,
    dim_grassmannian,
    grassmannian_closed_form,
    mazur_check,
)

SCHEMA_VERSION = 1
CACHE_FORMAT = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_VIOLATIONS = 4
EXIT_BUDGET = 5


def _datum_delta(args):
    """The root datum of ``--type`` and the diagram automorphism of ``--delta``."""
    images = None
    if args.delta is not None:
        tokens = args.delta.replace(" ", "").split(",")
        try:
            images = tuple(int(tok) for tok in tokens if tok)
        except ValueError as exc:
            raise ConfigError(f"cannot parse delta spec {args.delta!r}") from exc
    datum = build_root_datum(args.type)
    if images is None:
        return datum, DiagramAut.identity(datum)
    if len(images) != datum.rank:
        raise ConfigError("delta spec must list an image for every simple label")
    return datum, DiagramAut.from_one_based(datum, images)


def parse_b(datum, delta, text: str):
    """``--b`` text as (representative, class); ``unit``, ``1``, ``e`` are 1."""
    text = text.strip()
    if text in ("unit", "1", "e"):
        rep, text = identity(datum), "unit"
    else:
        rep = parse_element(datum, text)
    return rep, BElement.from_element(rep, delta, label=text)


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
        self._header_read = False  # the file began with this run's header
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
        self._header_read = True
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
        """Append the engine's new tables to the file as one write, under an
        exclusive ``flock``.

        A new or empty file gets the header first, and a batch after a torn
        last line starts on a line of its own, so a crashed or concurrent
        writer costs at most its own unfinished line.  A file that was new
        or empty when it was read, and that another run has since given its
        own header, is left to that run.
        """
        if not self.path or self._foreign:
            return
        header = json.dumps(self.header, sort_keys=True) + "\n"
        lines = []
        for elt, table in engine.memo.items():
            if elt in self._preexisting:
                continue
            self._preexisting.add(elt)
            record = ClassPolyTable(element_literal(elt), table).jsonable()
            lines.append(json.dumps(record, sort_keys=True) + "\n")
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd closes
            size = os.fstat(fd).st_size
            if not size:
                lines.insert(0, header)
            elif not self._header_read and os.pread(fd, len(header), 0) != header.encode():
                self._foreign = True
                return
            elif lines and os.pread(fd, 1, size - 1) != b"\n":
                lines.insert(0, "\n")
            data = "".join(lines).encode("utf-8")
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


@contextmanager
def _engine(args, datum, delta):
    """A class polynomial engine preloaded from the cache, saved after the block."""
    cache = TableCache(args.cache or os.environ.get("ADLV_CACHE") or None, datum, delta)
    engine = ClassPolyEngine(datum, delta, budget=args.budget)
    cache.preload(engine)
    with cache.saving(engine):
        yield engine


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    datum, delta = _datum_delta(args)
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
    if args.format == "json":
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
    datum, delta = _datum_delta(args)
    w = parse_element(datum, args.w, strict_reduced=args.strict_reduced)
    _, b = parse_b(datum, delta, args.b)
    with _engine(args, datum, delta) as engine:
        if args.emit_trace:
            _, trace = reduce_to_minimal(w, delta, budget=args.budget)
            for line in trace.format_lines():
                sys.stdout.write(line + "\n")
        profile = DimProfile(w, delta, engine)
        report = profile.report(b)
        if (args.defect is not None or b.defect_known) and profile.kappa == b.kappa:
            report.virtual_dim = profile.virtual(b, defect=args.defect)
    if args.format == "json":
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


def cmd_sweep(args) -> int:
    """Write the rows of the check with their status, then the skip and
    violation counts.

    A check yields its header, then each row's fields (``None`` prints as
    ``-``) and last whether the row's statement holds: ``None`` where it does
    not apply, which is ``skip``, else the check's pass or fail word.
    """
    datum, delta = _datum_delta(args)
    check, passed, failed = SWEEP_CHECKS[args.check]
    skipped = violations = 0
    out = sys.stdout
    with _engine(args, datum, delta) as engine:
        if args.b == "basic-all":
            b_set = _basic_b_set(datum, delta)
        else:
            b_set = [parse_b(datum, delta, tok) for tok in args.b.split(";") if tok]
        rows = check(args, datum, delta, engine, b_set)
        out.write("\t".join(next(rows)) + "\n")
        for *fields, holds in rows:
            status = "skip" if holds is None else passed if holds else failed
            skipped += status == "skip"
            violations += status == failed
            line = "\t".join("-" if f is None else str(f) for f in fields)
            out.write(f"{line}\t{status}\n")
    out.write(f"# skipped: {skipped}\n")
    out.write(f"# violations: {violations}\n")
    return EXIT_OK if violations == 0 else EXIT_VIOLATIONS


def _sweep_elements(datum, max_length):
    for n in range(max_length + 1):
        yield from elements_of_length(datum, n)


def _basic_b_set(datum, delta):
    """One (tau, class) pair per basic class, tau of length 0."""
    out = {}
    for tau in omega_group(datum):
        b = BElement.from_element(tau, delta, label=element_literal(tau))
        out.setdefault(b.descriptor, (tau, b))
    return list(out.values())


def _path_independence_rows(args, datum, delta, engine, b_set):
    yield "element", "length", "ok"
    for w in _sweep_elements(datum, args.max_length):
        report = verify_path_independence(
            w, delta, trials=args.trials, seed=args.seed, engine=engine
        )
        yield element_literal(w), w.length, report.ok


def _ghkr_rows(args, datum, delta, engine, b_set):
    """dim = virtual dim (``ghkr``) or dim <= virtual dim (``upper``)."""
    yield "element", "b", "dim", "virtual", "status"
    for w in _sweep_elements(datum, args.max_length):
        profile = DimProfile(w, delta, engine)
        for _, b in b_set:
            report = profile.ghkr(b)
            holds = report.equality_holds if args.check == "ghkr" else report.upper_holds
            yield report.element, b.label, report.dim, report.virtual, holds


def _mazur_rows(args, datum, delta, engine, b_set):
    """Mazur's inequality against nonemptiness of X_mu(b) in the Grassmannian;
    with J every finite label, the inequality applies to basic b only."""
    yield "mu", "b", "mazur", "nonempty", "status"
    J = tuple(range(1, datum.rank + 1))
    for mu in _dominant_box(datum, args.max_length):
        for tau, b in b_set:
            claim = mazur_check(mu, tau, J, delta) if b.is_basic else None
            truth = dim_grassmannian(
                mu, b, delta, engine=engine, cross_check=False
            ).nonempty
            holds = None if claim is None else claim == truth
            yield list(mu), b.label, claim, truth, holds


def _closed_form_rows(args, datum, delta, engine, b_set):
    yield "mu", "b", "dim", "closed_form", "status"
    for mu in _dominant_box(datum, args.max_length):
        for _, b in b_set:
            dim = dim_grassmannian(mu, b, delta, engine=engine).dim
            closed = grassmannian_closed_form(mu, b, delta)
            holds = None if closed is None else dim == closed
            # the column shows an empty variety as it shows no formula
            yield list(mu), b.label, dim, None if closed is EMPTY else closed, holds


def _dominant_box(datum, pairing_bound):
    """Dominant coweights with <mu, 2 rho> at most the bound, in lexicographic order."""
    rho2 = datum.rho2
    box = itertools.product(*(range(pairing_bound // r + 1) for r in rho2))
    return [mu for mu in box if sum(r * m for r, m in zip(rho2, mu)) <= pairing_bound]


# each check's rows, and the status of a row whose statement holds or fails
SWEEP_CHECKS = {
    "ghkr": (_ghkr_rows, "equal", "VIOLATION"),
    "upper": (_ghkr_rows, "ok", "VIOLATION"),
    "path-independence": (_path_independence_rows, "yes", "NO"),
    "mazur": (_mazur_rows, "ok", "VIOLATION"),
    "closed-form": (_closed_form_rows, "ok", "VIOLATION"),
}


def _int_from(low):
    """An argparse type: an integer of at least ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type when ``int`` fails
    return parse


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

    def common(p, *, fmt, engine):
        p.add_argument("--type", required=True, help="type label, e.g. A2 or A1xA1")
        p.add_argument(
            "--delta",
            help="diagram automorphism as comma-separated images of 1..rank",
        )
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if engine:
            p.add_argument("--cache", help="class polynomial cache file")
            p.add_argument("--budget", type=_int_from(0), default=DEFAULT_BUDGET)

    p = sub.add_parser("classify", help="list straight classes up to a length bound")
    common(p, fmt=True, engine=False)
    p.add_argument("--max-length", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dim", help="dimension of one X_w(b)")
    common(p, fmt=True, engine=True)
    p.add_argument("--w", required=True, help="element literal")
    p.add_argument("--b", required=True, help="'unit', 'tau^k', or an element literal")
    p.add_argument("--defect", type=int, help="explicit defect for non-basic b")
    p.add_argument("--emit-trace", action="store_true")
    p.add_argument("--strict-reduced", action="store_true")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("sweep", help="bulk property checks with a violation count")
    common(p, fmt=False, engine=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--b", default="basic-all", help="'basic-all' or ';'-separated literals")
    p.add_argument(
        "--check",
        choices=tuple(SWEEP_CHECKS),
        default="ghkr",
    )
    p.add_argument("--trials", type=_int_from(2), default=3)
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
    except ValueError as exc:  # ConfigError among them
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
