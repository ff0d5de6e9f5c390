"""Declarative instance files: parsing, validation, and diagnostics.

An instance file is a JSON document declaring the ambient variables, the
module relations, the ideal family, named joint-reduction candidates, and a
list of requests to run:

    {
      "variables": ["x1", "x2"],
      "module_relations": [],
      "J": ["x1", "x2"],
      "ideals": {"I1": ["x1", "x2"]},
      "candidates": {
        "c": {
          "type": {"k0": 0, "k": [1]},
          "elements": [
            {"monomial": "x1", "source": "I1"},
            {"monomial": "x2", "source": "J"}
          ]
        }
      },
      "requests": [{"command": "mixed", "type": {"k0": 0, "k": [1]}}]
    }

Monomial syntax is a '*'-separated product of powers like "x1^2*x3", or "1",
so a variable name must be one that syntax reads back: not empty, not "1",
and free of whitespace, '*' and '^'.
Every diagnostic names the JSON path (and the offending token for monomial
errors) so failures are actionable.  One parser, ``request_args``, turns
each request into the typed arguments its command runs on: parsing calls
it, so a malformed request stops the file before any request runs, and the
run calls it again for its arguments.  A key the program does not read, at
the top level, in a candidate, an element or a request, is an error too: a
misspelt key would otherwise be ignored.  Only an absent "candidates" key
declares no candidates; any value but an object is an error.
"""

from __future__ import annotations

import json

from .hilbert import IdealFamily, MixedType
from .monomials import Monomial, MonomialIdeal, QuotientModule, Record, RingContext, _set, ideal
from .reductions import J_SOURCE, JointReductionCandidate, PoolPolicy, ReesDatum


class InstanceParseError(ValueError):
    """A malformed instance file; the message carries the location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def parse_monomial(text: str, variables: list[str], ctx: RingContext, location: str) -> Monomial:
    """Parse a '*'-separated product of powers against the declared variables."""
    if not isinstance(text, str) or not text.strip():
        raise InstanceParseError("monomial must be a non-empty string", location)
    exps = [0] * ctx.num_vars
    if text.strip() == "1":
        return Monomial(tuple(exps))
    for pos, factor in enumerate(text.split("*")):
        factor = factor.strip()
        where = f"{location}, factor {pos + 1} ({factor!r})"
        name, sep, power = factor.partition("^")
        if name not in variables:
            raise InstanceParseError(f"unknown variable {name!r}", where)
        if sep:
            if not power.isdecimal() or int(power) < 1:
                raise InstanceParseError(f"malformed exponent {power!r}", where)
            e = int(power)
        else:
            e = 1
        exps[variables.index(name)] += e
    if sum(exps) >= 1 << 63:
        raise InstanceParseError(f"degree of {text!r} exceeds the int64 range", location)
    return Monomial(tuple(exps))


def _parse_ideal(entries, variables, ctx, location) -> MonomialIdeal:
    if not isinstance(entries, list):
        raise InstanceParseError("expected a list of monomial strings", location)
    monos = [
        parse_monomial(t, variables, ctx, f"{location}[{i}]") for i, t in enumerate(entries)
    ]
    return ideal(ctx, monos)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_type(obj, d: int, location: str) -> MixedType:
    if not isinstance(obj, dict) or set(obj) != {"k0", "k"}:
        raise InstanceParseError('type must be {"k0": int, "k": [int, ...]}', location)
    k = obj["k"]
    if (not _is_int(obj["k0"]) or not isinstance(k, list) or len(k) != d
            or not all(map(_is_int, k))):
        raise InstanceParseError(
            f"type needs integer k0 and a k-list of {d} integers", location
        )
    try:
        return MixedType(obj["k0"], tuple(k))
    except ValueError as exc:
        raise InstanceParseError(str(exc), location) from exc


def _reject_unknown_keys(obj: dict, known, location: str = "") -> None:
    """Stop at the first key of `obj` that is not in `known`, naming its
    JSON path."""
    for key in obj:
        if key not in known:
            raise InstanceParseError(
                f"unknown key {key!r}; expected one of {', '.join(known)}",
                f"{location}.{key}" if location else key,
            )


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise InstanceParseError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


#: The top-level keys of an instance document.
TOP_LEVEL_KEYS = ("variables", "module_relations", "J", "ideals", "candidates", "requests")

#: The fields each request command reads besides "command", the commands in
#: the order the README lists them.  A command that reads "type" or
#: "candidate" needs it.
REQUEST_FIELDS = {
    "hilbert": ("which",),
    "mixed": ("type",),
    "verify-jr": ("candidate",),
    "element-props": ("monomial", "ideal"),
    "mult-symbol": ("candidate",),
    "chi": ("candidate", "direct"),
    "verify-theorem": ("candidate", "ideal"),
    "verify-corollaries": ("candidate", "ideal"),
    "search-jr": ("type", "max_degree", "budget"),
}

#: The request commands.
COMMANDS = tuple(REQUEST_FIELDS)


def request_args(req: dict, loc: str, variables, family, ideal_names, candidates) -> tuple:
    """The arguments the request's command runs on, or an InstanceParseError
    naming the JSON path of the first field the run could not use.

    hilbert: (which,); mixed: (type,); verify-jr and mult-symbol:
    (candidate,); element-props: (monomial, axis); chi: (candidate, direct);
    verify-theorem and verify-corollaries: (candidate, axis or None), the
    axis of the named ideal, else the first with k_i > 0; search-jr:
    (type, PoolPolicy).
    """
    command = req["command"]

    def fail(field, message):
        raise InstanceParseError(message, f"{loc}.{field}")

    def name(field, declared):
        value = req.get(field)
        if not isinstance(value, str) or value not in declared:
            fail(field, f"undeclared {field} {value!r}")
        return value

    if command not in COMMANDS:
        fail("command", f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    fields = REQUEST_FIELDS[command]
    _reject_unknown_keys(req, ("command", *fields), loc)
    if "type" in fields:
        mt = _parse_type(req.get("type"), len(ideal_names), f"{loc}.type")
    if "candidate" in fields:
        cname = name("candidate", candidates)
    if command == "hilbert":
        which = req.get("which", "P")
        if which not in ("P", "F"):
            fail("which", "which must be 'P' or 'F'")
        return (which,)
    if command == "mixed":
        return (mt,)
    if command in ("verify-jr", "mult-symbol"):
        return (cname,)
    if command == "element-props":
        axis = ideal_names.index(name("ideal", ideal_names))
        mono = parse_monomial(req.get("monomial"), variables, family.ctx, f"{loc}.monomial")
        if not family.ideals[axis].contains(mono):
            fail("monomial", f"{mono} does not lie in {req['ideal']}")
        return mono, axis
    if command == "chi":
        direct = req.get("direct", False)
        if not isinstance(direct, bool):
            fail("direct", "direct must be true or false")
        return cname, direct
    if command == "search-jr":
        for key in ("max_degree", "budget"):
            if key in req and not (_is_int(req[key]) and req[key] >= 0):
                fail(key, f"{key} must be a non-negative integer")
        return mt, PoolPolicy(**{key: req[key] for key in ("max_degree", "budget") if key in req})
    # verify-theorem and verify-corollaries
    if "ideal" in req:
        return cname, ideal_names.index(name("ideal", ideal_names))
    axis = next((i for i, ki in enumerate(candidates[cname].declared_type.k) if ki > 0), None)
    if axis is None and command == "verify-theorem":
        fail("candidate", "candidate type has no positive k_i; name the ideal")
    return cname, axis


class InstanceFile(Record, compared=("name", "variables", "family", "ideal_names", "candidates",
                                     "requests", "raw")):
    """A validated instance: the family, named candidates, and requests.

    Parsing certifies nothing; a candidate is certified the first time its
    datum is asked for, and the datum is kept for the life of the instance.
    """

    __slots__ = ("name", "variables", "family", "ideal_names", "candidates", "requests", "raw",
                 "_data")

    def __init__(self, name: str, variables: tuple[str, ...], family: IdealFamily,
                 ideal_names: tuple[str, ...], candidates: dict[str, JointReductionCandidate],
                 requests: tuple[dict, ...], raw: dict):
        _set(self, "name", name)
        _set(self, "variables", variables)
        _set(self, "family", family)
        _set(self, "ideal_names", ideal_names)
        _set(self, "candidates", candidates)
        _set(self, "requests", requests)
        _set(self, "raw", raw)
        _set(self, "_data", {})

    def datum(self, name: str) -> ReesDatum:
        """The family with the named candidate, certified once per instance."""
        if name not in self._data:
            self._data[name] = ReesDatum(self.family, self.candidates[name])
        return self._data[name]


def parse_instance(text: str, name: str = "<instance>") -> InstanceFile:
    """Parse and validate an instance document."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise InstanceParseError("invalid JSON: arrays or objects nested too deeply") from exc
    if not isinstance(raw, dict):
        raise InstanceParseError("top level must be an object")
    _reject_unknown_keys(raw, TOP_LEVEL_KEYS)

    variables = raw.get("variables")
    if not isinstance(variables, list) or not variables or not all(
        isinstance(v, str) for v in variables
    ):
        raise InstanceParseError("need a non-empty list of variable names", "variables")
    for i, var in enumerate(variables):
        if var in ("", "1") or "*" in var or "^" in var or any(c.isspace() for c in var):
            raise InstanceParseError(
                f"variable name {var!r} cannot be read back in monomial syntax",
                f"variables[{i}]",
            )
    if len(set(variables)) != len(variables):
        raise InstanceParseError("duplicate variable name", "variables")
    ctx = RingContext(len(variables))

    relations = _parse_ideal(raw.get("module_relations", []), variables, ctx, "module_relations")
    module = QuotientModule(ctx, relations)

    if "J" not in raw:
        raise InstanceParseError("missing J", "J")
    j = _parse_ideal(raw["J"], variables, ctx, "J")

    ideals_obj = raw.get("ideals")
    if not isinstance(ideals_obj, dict) or not ideals_obj:
        raise InstanceParseError("at-least-one-ideal: declare a non-empty ideals object", "ideals")
    ideal_names = tuple(ideals_obj)
    if "J" in ideal_names:
        raise InstanceParseError("duplicate ideal name: 'J' is reserved", "ideals")
    parsed_ideals = tuple(
        _parse_ideal(ideals_obj[nm], variables, ctx, f"ideals.{nm}") for nm in ideal_names
    )

    try:
        family = IdealFamily(j, parsed_ideals, module)
    except ValueError as exc:
        raise InstanceParseError(str(exc), "J") from exc

    candidates = {}
    candidates_obj = raw.get("candidates", {})
    if not isinstance(candidates_obj, dict):
        raise InstanceParseError("candidates must be an object of named candidates", "candidates")
    for cname, cobj in candidates_obj.items():
        loc = f"candidates.{cname}"
        if not isinstance(cobj, dict) or "type" not in cobj or "elements" not in cobj:
            raise InstanceParseError("candidate needs 'type' and 'elements'", loc)
        _reject_unknown_keys(cobj, ("type", "elements"), loc)
        mt = _parse_type(cobj["type"], len(ideal_names), f"{loc}.type")
        if not isinstance(cobj["elements"], list):
            raise InstanceParseError("elements must be a list", f"{loc}.elements")
        elements = []
        for i, eobj in enumerate(cobj["elements"]):
            eloc = f"{loc}.elements[{i}]"
            if not isinstance(eobj, dict) or "monomial" not in eobj or "source" not in eobj:
                raise InstanceParseError("element needs 'monomial' and 'source'", eloc)
            _reject_unknown_keys(eobj, ("monomial", "source"), eloc)
            mono = parse_monomial(eobj["monomial"], variables, ctx, eloc)
            src_name = eobj["source"]
            if src_name == "J":
                src = J_SOURCE
            elif src_name in ideal_names:
                src = ideal_names.index(src_name)
            else:
                raise InstanceParseError(f"unknown source {src_name!r}", eloc)
            elements.append((mono, src))
        try:
            cand = JointReductionCandidate(tuple(elements), mt)
            cand.check_membership(family)
        except ValueError as exc:
            raise InstanceParseError(f"candidate-type mismatch: {exc}", loc) from exc
        candidates[cname] = cand

    requests = raw.get("requests", [])
    if not isinstance(requests, list):
        raise InstanceParseError("requests must be a list", "requests")
    for i, req in enumerate(requests):
        if not isinstance(req, dict) or "command" not in req:
            raise InstanceParseError("request needs a 'command'", f"requests[{i}]")
        request_args(req, f"requests[{i}]", variables, family, ideal_names, candidates)

    return InstanceFile(
        name=name,
        variables=tuple(variables),
        family=family,
        ideal_names=ideal_names,
        candidates=candidates,
        requests=tuple(requests),
        raw=raw,
    )
