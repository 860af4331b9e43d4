"""Command line front end. JSON on stdout, one-line JSON errors on stderr.

Exit codes: 0 success, 1 domain error (zero divisor, outside model, a
result that is not finite, ...), 2 usage error (including a nan or infinite
number on the command line and an ``--svg`` path that cannot be written).
Floats print with 17 significant digits unless the KINEMATICA_PRECISION
environment variable overrides the width, so output is byte-stable for fixed
inputs.

One table, :data:`COMMANDS`, gives each subcommand its summary, its options
and its runner.  A small parser reads the command line from the options, the
``--help`` text is generated from the summary and the options, and
:func:`main` calls the runner.  A runner returns either a JSON value, which
is printed as one line, or a ``str``, which is written unchanged: the dot
graph, and the SVG of ``region`` (empty once ``--svg`` has written it to a
file).  An answer of fixed shape is kept as text: a :class:`Template`, written
once per process and precision on first use, holds one ``%``-slot per float
that varies, and its runner returns the template :class:`Filled` with those
floats, so no answer dict is built per request.  A constant of the shape is
written into the text: the entries that exp(t*G) holds at 0 and 1 and the
zero parts of the spin element over it, in one template per generator for
``exp`` and one for ``spin`` (laid out by ``ckgeom.plane_rotation`` and
``spin.AXES``; the tags H, P and K, the keys of ``ckgeom.PLANES``, are
literals here, so that importing this module runs no layer), and the rotor's
zero odd slots in ``rotate``.  The answers of ``exp``, ``project``,
``unproject``, ``distance``, ``rotate`` and ``spin`` are templates; those
that take no input, ``classify`` and ``graph --format json``, are the
templates without a slot, and the dot graph is written once per process.
``conformal-table`` has one template per pattern (``--diff-paper``, whether
each label is 0, the errata slots the diff reports), built the first time a
request has that pattern from ``conformal.bracket_monomials`` and
``conformal.errata``, which hold no label value: a +-1 coefficient is written
in and a +-kappa1 or +-kappa2 coefficient is a slot, so a request only
evaluates those monomials.  ``region``'s SVG is one text template per
boundary shape and null-line pattern (see ``ckgeom.region_svg``).  No
template is keyed by the label values, and ``errors.fill`` writes the floats
of every template.  The parser accepts the command lines argparse accepted for
the same table, with the same values and argparse's one-line error messages;
the one difference is that a ``--`` given after ``=`` is read as the value
``--``.  One reader converts every value: it reads the exact form, where each
option is its full name with ``=value`` or a flag's bare name.  A command line
in that form is read as it is; every other form, and every exact command line
the reader rejects, is first rewritten into it (prefixes expanded, spaced
values joined on, unknown tokens set aside) and then read by the same reader.

Importing this module registers all seven layers but runs none of them (see
the package docstring).  A runner reaches a layer's names through the layer,
as ``ckgeom.KappaPair`` or ``gencomplex.gc``, as every layer reaches
``gentrig`` and ``gencomplex``; the first such access runs the layer, so a
request runs exactly the layers its answer calls: ``graph`` runs ``kinclass``
alone, ``region`` ``ckgeom``, ``distance`` ``ckgeom``, ``gencomplex`` and
``gentrig``, and ``--help`` none.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import ckgeom, conformal, gencomplex, kinclass, spin
from .errors import KinematicaError, fill


# the key of KINEMATICA_PRECISION in os.environ's own dict, the one that
# os.environ and os.environb read and write: a lookup there took 0.05 µs,
# where os.environ.get, which encodes the key and decodes the value in
# Python-level Mapping code, took 0.94 µs
_PRECISION_KEY = os.environ.encodekey("KINEMATICA_PRECISION")


def _precision() -> int:
    """The width KINEMATICA_PRECISION names, read on each call: an int clamped to 1..17, else 17."""
    return _width(os.environ._data.get(_PRECISION_KEY))


@functools.lru_cache(maxsize=1)  # the last value read, which the next call almost always reads
def _width(raw) -> int:
    """The width of the variable's raw value, None where it is unset."""
    if raw is None:
        return 17
    try:
        return max(1, min(17, int(os.environ.decodevalue(raw))))
    except ValueError:
        return 17


def _dump_str(obj: str, precision: int) -> str:
    escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
    if not escaped.isprintable():  # JSON strings hold no raw control characters
        escaped = "".join(f"\\u{ord(c):04x}" if c < " " else c for c in escaped)
    return f'"{escaped}"'


def _dump_float(obj: float, precision: int) -> str:
    return fill(f"%.{precision}g", (obj,))


def _dump_dict(obj: dict, precision: int) -> str:
    return "{" + ",".join([
        f"{_dump_str(str(k), precision)}:{_WRITERS.get(type(v), _dump_other)(v, precision)}"
        for k, v in obj.items()
    ]) + "}"


def _dump_list(obj: list | tuple, precision: int) -> str:
    return "[" + ",".join([_WRITERS.get(type(v), _dump_other)(v, precision) for v in obj]) + "]"


def _dump_other(obj, precision: int) -> str:
    raise TypeError(f"cannot serialize {type(obj)}")


class _Slot:
    """The type of :data:`SLOT`."""

    __slots__ = ()


# stands for one float in a template's skeleton; written as a NUL, which no
# other value writes (a string's control characters are escaped)
SLOT = _Slot()


class Template:
    """The text of a fixed-shape JSON answer, with one ``%``-slot per float.

    ``skeleton()`` makes the answer with :data:`SLOT` in place of each float.
    :func:`dumps` writes it once per process and precision, on first use, so
    keys, order and escaping come from the one writer; each slot becomes
    ``%.{precision}g`` and each ``%`` of a kept string is doubled.  A template
    without a slot is an input-free answer: it keeps its finished text, with
    no ``%`` doubled, and a request returns that text as it is.
    """

    __slots__ = ("skeleton", "texts")

    def __init__(self, skeleton: Callable[[], object]) -> None:
        self.skeleton = skeleton
        self.texts: dict[int, str] = {}

    def _text(self, precision: int) -> str:
        text = self.texts.get(precision)
        if text is None:
            text = dumps(self.skeleton(), precision)
            if "\0" in text:
                text = text.replace("%", "%%").replace("\0", f"%.{precision}g")
            self.texts[precision] = text
        return text


class Filled(NamedTuple):
    """A template and its floats, in writing order: what a templated runner returns."""

    template: Template
    values: tuple[float, ...] = ()


def _dump_filled(obj: Filled, precision: int) -> str:
    template, values = obj
    text = template._text(precision)
    return fill(text, values) if values else text  # an input-free text is finished


# exact type -> writer; any other type goes to _dump_other
_WRITERS: dict[type, Callable[[object, int], str]] = {
    dict: _dump_dict,
    list: _dump_list,
    tuple: _dump_list,
    str: _dump_str,
    bool: lambda obj, precision: "true" if obj else "false",
    type(None): lambda obj, precision: "null",
    int: lambda obj, precision: str(obj),
    float: _dump_float,
    Filled: _dump_filled,
    _Slot: lambda obj, precision: "\0",
}


def dumps(obj, precision: int) -> str:
    """Minimal JSON writer with controlled float formatting, insertion order.

    The writer is chosen by the exact type of each value: dict, list, tuple
    (written as a list, so a matrix of row tuples is a list of lists), str,
    bool, None, int and float, plus :class:`Filled` templates.  Any other
    type, a subclass of those included, raises TypeError; a nan or infinite
    float raises NonFiniteResult.
    """
    return _WRITERS.get(type(obj), _dump_other)(obj, precision)


class UsageError(Exception):
    """A command line the parser or a name lookup rejects (exit 2)."""


def _finite_float(text: str) -> float:
    """The type of every numeric option: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {text!r}")
    return value


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 'u,v', got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1])


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected 'a,b,c', got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1]), _finite_float(parts[2])


class Option(NamedTuple):
    """One option of a subcommand.

    ``type`` turns the value text into the stored value and raises
    :class:`UsageError` when it cannot; ``type=None`` makes a flag that takes
    no value and stores True.  ``dest`` defaults to the name without its
    dashes.
    """

    name: str
    type: Callable[[str], object] | None = str
    required: bool = True
    choices: tuple[str, ...] = ()
    dest: str = ""
    default: object = None
    metavar: str = ""
    help: str = ""


class Command(NamedTuple):
    """One subcommand: its ``--help`` summary, its options and its runner.

    ``run(args)`` returns a JSON value (a :class:`Filled` template among
    them), which :func:`main` prints as one line, or a ``str``, which
    :func:`main` writes unchanged.
    """

    summary: str
    options: tuple[Option, ...]
    run: Callable[[SimpleNamespace], object]


def _kappas(args) -> ckgeom.KappaPair:
    return ckgeom.KappaPair._make((args.kappa1, args.kappa2))  # parsed finite: no check


_CLASSIFY = Filled(Template(lambda: {
    "counts": kinclass.classification_counts(),
    "algebras": kinclass.classification_rows(),
}))
_GRAPH = Filled(Template(lambda: [
    {"from": s, "to": d, "type": k} for s, d, k in kinclass.contraction_graph()
]))

_PROJECT = Template(lambda: {"re": SLOT, "im": SLOT, "kappa": SLOT})
_UNPROJECT = Template(lambda: {"point": (SLOT,) * 3})
_DISTANCE = Template(lambda: {"distance": SLOT})
# the rotor's odd slots (s1, s2, s3, i) are 0
_ROTATE = Template(lambda: {
    "rotor": {"kappa1": SLOT, "kappa2": SLOT,
              "coeffs": (SLOT, 0.0, 0.0, 0.0, SLOT, SLOT, SLOT, 0.0)},
    "vector": (SLOT,) * 3,
})


def _motion(gen: str) -> tuple:
    return ckgeom.plane_rotation(gen, (SLOT,) * 4)  # a slot for each part of exp_parts


def _spin_skeleton(gen: str) -> dict:
    # sink sits where gen's axis is 1, as spin.sl2_parts lays it out, and 0 elsewhere
    im_alpha, im_beta, re_beta = (SLOT if n else 0.0 for n in spin.AXES[gen])
    return {"alpha": {"re": SLOT, "im": im_alpha, "kappa": SLOT},
            "beta": {"re": re_beta, "im": im_beta, "kappa": SLOT}, "so3": _motion(gen)}


# exp names its generator, and both exp and spin lay out their generator's
# constants, so each letter has a template of each
_EXP = {gen: Template(lambda gen=gen: {"generator": gen, "param": SLOT, "matrix": _motion(gen)})
        for gen in "HPK"}
_SPIN = {gen: Template(lambda gen=gen: _spin_skeleton(gen)) for gen in "HPK"}


def _run_classify(args) -> Filled:
    return _CLASSIFY


def _run_contract(args) -> dict:
    try:
        return {"to": kinclass.contraction_target(args.source, args.kind)}
    except KeyError as exc:
        raise UsageError(str(exc)) from None


@functools.cache
def _graph_dot() -> str:
    """The dot twin of :data:`_GRAPH`: input-free text, written once per process."""
    edges = kinclass.contraction_graph()
    lines = [f'  "{src}" -> "{dst}" [label="{kind}"];' for src, dst, kind in edges]
    return "\n".join(["digraph contractions {", *lines, "}", ""])


def _run_graph(args) -> Filled | str:
    return _GRAPH if args.format == "json" else _graph_dot()


def _run_exp(args) -> Filled:
    parts = ckgeom.exp_parts(_kappas(args), args.gen, args.param)
    return Filled(_EXP[args.gen], (args.param, *parts))


def _run_project(args) -> Filled:
    # a GenComplex is the tuple (re, im, kappa)
    return Filled(_PROJECT, ckgeom.project(_kappas(args), args.point))


def _run_unproject(args) -> Filled:
    kp = _kappas(args)
    return Filled(_UNPROJECT, ckgeom.unproject(kp, gencomplex.gc(*args.w, kp.kappa2)))


def _run_distance(args) -> Filled:
    # the parsed floats are the parts of w1 and w2, which both carry kappa2
    return Filled(_DISTANCE, (ckgeom.distance_parts(args.kappa1, args.kappa2, *args.w1, *args.w2),))


def _run_rotate(args) -> Filled:
    kp = _kappas(args)
    a0, a1, b0, b1 = spin.axis_parts(kp, *spin.UnitAxis(*args.axis), args.angle)
    spin.require_unit(kp, a0, a1, b0, b1)
    out = spin.sandwich_parts(kp, a0, a1, b0, b1, *args.vector)
    # printed in the rotor's slot order 1, is1, is2, s3check
    return Filled(_ROTATE, (kp.kappa1, kp.kappa2, a0, a1, b1, b0, *out))


def _run_spin(args) -> Filled:
    kp, gen = _kappas(args), args.gen
    c, s = spin.half_angle_parts(kp, gen, args.param)
    # in writing order: s is Im alpha where gen's axis is n1, else a part of beta
    parts = (c, s, kp.kappa2, kp.kappa2) if spin.AXES[gen][0] else (c, kp.kappa2, s, kp.kappa2)
    return Filled(_SPIN[gen], (*parts, *ckgeom.exp_parts(kp, gen, args.param)))


# conformal-table's answer has one shape per pattern (--diff-paper, kappa1 == 0,
# kappa2 == 0, the errata slots): pattern -> (template, monomial of each slot).
# It is never keyed by the label values.
_CONFORMAL: dict[tuple, tuple[Template, tuple[tuple[int, int, int], ...]]] = {}


def _conformal_template(table: dict, errata: tuple | None):
    """The template of conformal-table's answer, and its slots' monomials.

    ``table`` is ``conformal.bracket_monomials`` and ``errata`` the records of
    ``conformal.errata``, or None without ``--diff-paper``.  Each coefficient
    c0 + c1*kappa1 + c2*kappa2 with c0 != 0 is +-1 and is written into the
    text; any other is a slot.  Neither argument holds a label value, so the
    template serves every request with its pattern.
    """
    monomials = []

    def slotted(entry: dict[str, tuple[int, int, int]]) -> dict:
        out = {}
        for tag, monomial in entry.items():
            if monomial[0]:
                out[tag] = float(monomial[0])
            else:
                out[tag] = SLOT
                monomials.append(monomial)
        return out

    answer = {"brackets": {
        f"[{row},{col}]": slotted(entry) for (row, col), entry in table.items() if entry
    }}
    if errata is not None:
        answer["diff"] = [
            {  # computed's slots come before claimed's
                "bracket": f"[{row},{col}]",
                "computed": slotted(table[(row, col)]),
                "claimed": claimed if isinstance(claimed, str) else slotted(claimed),
            }
            for (row, col), claimed in errata
        ]
    return Template(lambda: answer), tuple(monomials)


def _run_conformal(args) -> Filled:
    kp = _kappas(args)
    k1, k2 = kp
    errata = conformal.errata(kp) if args.diff else None
    pattern = (args.diff, k1 == 0.0, k2 == 0.0, tuple([slot for slot, _ in errata or ()]))
    found = _CONFORMAL.get(pattern)
    if found is None:
        found = _CONFORMAL[pattern] = _conformal_template(conformal.bracket_monomials(kp), errata)
    template, monomials = found
    return Filled(template, tuple([c0 + c1 * k1 + c2 * k2 for c0, c1, c2 in monomials]))


def _run_region(args) -> str:
    svg = ckgeom.region_svg(_kappas(args))
    if not args.svg:
        return svg
    try:
        with open(args.svg, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise UsageError(f"cannot write --svg: {exc}") from None
    return ""


_KAPPAS = (Option("--kappa1", _finite_float), Option("--kappa2", _finite_float))
_MOTION = (Option("--gen", choices=("H", "P", "K")), Option("--param", _finite_float))

_DESCRIPTION = "two-parameter plane kinematics and Cayley-Klein geometry"

# subcommand -> Command: the one source of parsing, of --help and of what runs
COMMANDS: dict[str, Command] = {
    "classify": Command("the 27 bracket structures and counts", (), _run_classify),
    "contract": Command("contract a named kinematical algebra", (
        Option("--from", dest="source"),
        # sorted(kinclass.CONTRACTION_EXPONENTS), spelled out so that building
        # the table does not load kinclass
        Option("--type", dest="kind", choices=("space-time", "speed-space", "speed-time")),
    ), _run_contract),
    "graph": Command("the contraction graph", (
        Option("--format", required=False, choices=("json", "dot"), default="json"),
    ), _run_graph),
    "exp": Command("closed-form one-parameter subgroup element", (*_MOTION, *_KAPPAS), _run_exp),
    "project": Command("central projection of a quadric point", (
        Option("--point", _parse_triple, metavar="z,t,x"),
        *_KAPPAS,
    ), _run_project),
    "unproject": Command("lift a plane point to the quadric", (
        Option("--w", _parse_pair, metavar="u,v"),
        *_KAPPAS,
    ), _run_unproject),
    "distance": Command("closed-form distance between plane points", (
        Option("--w1", _parse_pair, metavar="u,v"),
        Option("--w2", _parse_pair, metavar="u,v"),
        *_KAPPAS,
    ), _run_distance),
    "rotate": Command("rotor sandwich of a vector", (
        Option("--axis", _parse_triple, metavar="n1,n2,n3"),
        Option("--angle", _finite_float),
        Option("--vector", _parse_triple, metavar="a1,a2,a3"),
        *_KAPPAS,
    ), _run_rotate),
    "spin": Command("spin element over a generator exponential", (*_MOTION, *_KAPPAS),
                    _run_spin),
    "conformal-table": Command("computed conformal bracket table", (
        Option("--diff-paper", None, required=False, dest="diff", default=False,
               help="include the diff against the published table"),
        *_KAPPAS,
    ), _run_conformal),
    "region": Command("SVG of the model region", (
        Option("--svg", required=False, metavar="PATH",
               help="output path (stdout when omitted)"),
        *_KAPPAS,
    ), _run_region),
}

_HELP = Option("-h/--help", None, required=False, help="show this help message and exit")
_TOP = {"-h": _HELP, "--help": _HELP}
# subcommand -> its options with dest filled in, and option string -> option
_TABLES = {
    name: tuple(o._replace(dest=o.dest or o.name[2:].replace("-", "_")) for o in command.options)
    for name, command in COMMANDS.items()
}
_EXACT = {command: {o.name: o for o in table} for command, table in _TABLES.items()}
_OPTIONS = {command: {**_TOP, **exact} for command, exact in _EXACT.items()}
# stands for the value of a required option that has not been read
_MISSING = object()
# subcommand -> the namespace before any option is read: each required option
# starts as _MISSING, each optional one as its default
_DEFAULTS = {
    command: {"command": command, **{o.dest: _MISSING if o.required else o.default for o in table}}
    for command, table in _TABLES.items()
}


def _choice_error(prog: str, name: str, value, choices) -> UsageError:
    quoted = ", ".join(map(repr, choices))
    return UsageError(f"{prog}: argument {name}: invalid choice: {value!r} (choose from {quoted})")


def _classify(token: str, options: dict[str, Option], prog: str):
    """How one token reads: None for a value, else (option or None, name, explicit value).

    An option is its exact name, ``name=value``, a unique prefix of a long
    name (with or without ``=value``), or ``-h`` with text run on.  A token
    that is none of these but starts with ``-`` is an unknown option unless it
    is a negative number (``-`` then a digit, or ``-.`` then a digit) or holds
    a space, which make it a value.
    """
    if not token.startswith("-"):
        return None
    if token in options:
        return options[token], token, None
    if len(token) == 1:
        return None
    name, eq, explicit = token.partition("=")
    if eq and name in options:
        return options[name], name, explicit
    if token[1] == "-":
        found = [(options[o], o, explicit if eq else None) for o in options if o.startswith(name)]
    else:
        found = [(options[token[:2]], token[:2], token[2:])] if token[:2] in options else []
    if len(found) > 1:
        matches = ", ".join(o for _, o, _ in found)
        raise UsageError(f"{prog}: ambiguous option: {token} could match {matches}")
    if found:
        return found[0]
    if token[1:2].isdecimal() or (token[1] == "." and token[2:3].isdecimal()):
        return None
    if " " in token:
        return None
    return None, token, None


def _check_flag(option: Option, name: str, explicit: str | None, prog: str) -> None:
    if name == "-h" and explicit:  # -hh: one-letter flags run together
        explicit = explicit.lstrip("h") or None
    if explicit is not None:
        raise UsageError(f"{prog}: argument {option.name}: ignored explicit argument {explicit!r}")


def _read(command: str, tokens: list[str], options: dict[str, Option]) -> SimpleNamespace | Option:
    """The namespace of a subcommand's tokens, each ``--name=value`` or a flag's bare name.

    The one reader of option values: in token order it converts each value,
    checks its choices, checks each flag and stops at help, with argparse's
    messages.  Each required option starts as ``_MISSING``; one still
    ``_MISSING`` after the last token is reported as required.  The last
    occurrence of a repeated option wins, but every occurrence must convert.
    A name that is not in ``options`` raises KeyError.  An option that needs a
    value and has none ends the reading there and is returned in place of the
    namespace, so that a failed exact pass formats no message; :func:`parse_args`
    reports it as "expected one argument".
    """
    values = _DEFAULTS[command].copy()
    for token in tokens:
        name, eq, text = token.partition("=")
        option = options[name]
        if (convert := option.type) is None:
            if eq:
                _check_flag(option, name, text, f"kinematica {command}")
            if option is _HELP:
                sys.stdout.write(_help_text(command))
                raise SystemExit(0)
            value = True
        elif not eq:
            return option
        else:
            try:
                value = convert(text)
            except UsageError as exc:
                raise UsageError(f"kinematica {command}: argument {option.name}: {exc}") from None
            if option.choices and value not in option.choices:
                raise _choice_error(f"kinematica {command}", option.name, value, option.choices)
        values[option.dest] = value
    if _MISSING in values.values():
        missing = ", ".join(o.name for o in _TABLES[command] if values[o.dest] is _MISSING)
        raise UsageError(f"kinematica {command}: the following arguments are required: {missing}")
    return SimpleNamespace(**values)


def _rewrite(command: str, tokens: list[str], extras: list[str]) -> list[str]:
    """A subcommand's tokens in the form :func:`_read` reads; the others go to ``extras``.

    Every token before ``--`` is classified first, so an ambiguous option is
    reported ahead of any other error.  Then each option becomes its full
    name, a value in its own token is joined onto its option after ``=``, and
    an option left without a value stays bare.  Unknown tokens, and every
    token from ``--`` on, go to ``extras``.
    """
    options, prog = _OPTIONS[command], f"kinematica {command}"
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(token, options, prog) for token in tokens[:end]]
    exact = []
    i = 0
    while i < end:
        found = kinds[i]
        i += 1
        if found is None or found[0] is None:
            extras.append(tokens[i - 1])
            continue
        option, name, text = found
        if text is None and option.type is not None and i < end and kinds[i] is None:
            text = tokens[i]
            i += 1
        exact.append(name if text is None else f"{name}={text}")
    extras.extend(tokens[end:])
    return exact


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of one command line: ``command`` plus one entry per option.

    :func:`_read` reads a command line in the exact ``--name=value`` form as
    it is.  Any other form, and any exact command line that ``_read``
    rejects, is first rewritten into that form (:func:`_rewrite`) and read
    again by ``_read``, so the messages and their precedence do not depend on
    the form.  Raises :class:`UsageError` for a command line it rejects.
    ``--help`` writes the help text to stdout and raises ``SystemExit(0)``.
    """
    options = _EXACT.get(argv[0]) if argv else None
    if options is not None:
        try:
            namespace = _read(argv[0], argv[1:], options)
        except (KeyError, UsageError):
            pass  # another form, or an error the rewritten command line reports
        else:
            if type(namespace) is not Option:
                return namespace
    extras: list[str] = []
    command = None
    for i, token in enumerate(argv):
        if token == "--" and i + 1 == len(argv):
            break  # a lone trailing -- names no subcommand
        if token == "--" or (found := _classify(token, _TOP, "kinematica")) is None:
            command = token
            break
        option, name, explicit = found
        if option is None:
            extras.append(token)
            continue
        _check_flag(option, name, explicit, "kinematica")
        sys.stdout.write(_help_text(None))
        raise SystemExit(0)
    if command is None:
        raise UsageError("kinematica: the following arguments are required: command")
    if command not in COMMANDS:
        raise _choice_error("kinematica", "command", command, COMMANDS)
    namespace = _read(command, _rewrite(command, argv[i + 1:], extras), _OPTIONS[command])
    if type(namespace) is Option:
        raise UsageError(f"kinematica {command}: argument {namespace.name}: expected one argument")
    if extras:
        raise UsageError(f"kinematica: unrecognized arguments: {' '.join(extras)}")
    return namespace


def _usage(option: Option) -> str:
    if option.type is None:
        shown = option.name
    else:
        metavar = option.metavar or (
            "{" + ",".join(option.choices) + "}" if option.choices else option.dest.upper())
        shown = f"{option.name} {metavar}"
    return shown if option.required else f"[{shown}]"


def _help_text(command: str | None) -> str:
    """The ``--help`` text of one subcommand, or of the program when ``command`` is None."""
    if command is None:
        usage, summary = "[-h] <command> [options]", _DESCRIPTION
        rows = [(name, row.summary) for name, row in COMMANDS.items()]
    else:
        summary, table = COMMANDS[command].summary, _TABLES[command]
        usage = " ".join([command, "[-h]", *map(_usage, table)])
        rows = [(_usage(option).strip("[]"), option.help) for option in table]
    rows.append(("-h, --help", _HELP.help))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
    return "\n".join([f"usage: kinematica {usage}", "", summary, "", *lines, ""])


def _error_line(kind: str, message: str) -> str:
    """The one-line JSON error ``{"error": kind, "message": message}`` that main writes."""
    return '{"error":%s,"message":%s}\n' % (_dump_str(kind, 0), _dump_str(message, 0))


def main(argv: list[str] | None = None) -> int:
    precision = _precision()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        out = COMMANDS[args.command].run(args)
        sys.stdout.write(out if isinstance(out, str) else dumps(out, precision) + "\n")
    except SystemExit as exc:  # --help prints its text and exits 0
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(_error_line("usage", str(exc)))
        return 2
    except KinematicaError as exc:
        sys.stderr.write(_error_line(type(exc).__name__, str(exc)))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
