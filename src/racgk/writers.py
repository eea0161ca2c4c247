"""Report writers: `render_text` for the text report and `dump_json`,
`json.dumps(value, indent=2, sort_keys=True)` byte for byte, for the
JSON report."""

import json
from itertools import chain
from json.encoder import encode_basestring_ascii


def render_text(report, indent=0):
    """`key: value` or `- value` lines; a nested container goes below.
    A list of lists of str that `_plain_strings` passes, such as the
    clique basis, is written a row a line by one join each, as
    `json.dumps` writes the row."""
    pad = "  " * indent
    if isinstance(report, dict):
        items = (("%s%s:" % (pad, k), v) for k, v in report.items())
    elif set(map(type, report)) <= {list} and _plain_strings(report):
        return ['%s- ["%s"]' % (pad, '", "'.join(row)) if row
                else pad + "- []" for row in report]
    else:
        items = ((pad + "-", v) for v in report)
    lines = []
    for head, v in items:
        if isinstance(v, dict) and v or isinstance(v, list) and any(
                isinstance(x, (dict, list)) for x in v):
            lines.append(head)
            lines.extend(render_text(v, indent + 1))
        else:
            lines.append("%s %s" % (head, _flat(v)))
    return lines


def _flat(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    return json.dumps(v) if isinstance(v, (dict, list)) else str(v)


# keyed by exact type, so a bool is never written by `int.__repr__`
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: ("false", "true").__getitem__,
            type(None): {None: "null"}.__getitem__}
_EMPTY = {list: "[]", tuple: "[]", dict: "{}"}
# what the C quoting leaves alone: printable ASCII but `"` and backslash
_PLAIN = bytes(c for c in range(0x20, 0x7f) if c not in b'"\\')


def _plain(text):
    """True if the C quoting adds only the two quotes, by `translate`."""
    return text.isascii() and not text.encode().translate(None, _PLAIN)


def _plain_strings(rows):
    """True if every item of every row is an exact str that the C quoting
    leaves alone: the rows that both writers quote by the join itself."""
    return (set(map(type, chain.from_iterable(rows))) <= {str}
            and _plain("".join(set(chain.from_iterable(rows)))))


def dump_json(value, pad="\n"):
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, at
    the nesting level whose line break and indent are `pad`.  Where
    `indent` is set, the standard library makes one Python call per
    value; here a call is made only for a nested, non-empty container.
    A dict value or list item whose exact type is str, int, bool or None
    is written in place, by the C quoting, `int.__repr__` or its JSON
    literal, and so is an empty list, tuple or dict.  A list or tuple of
    one such type is one join over that writer.  A list of str whose
    joined text the C quoting leaves alone (printable ASCII with no `"`
    or backslash) is quoted by the join itself, and so is a list of str
    lists, such as the clique basis, that `_plain_strings` passes."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        sep = "," + inner
        parts = ["{", inner]
        # the leaf rule of the list loop below, inlined in both loops
        # because a shared helper would cost a call per container
        try:
            for k in sorted(value):
                v = value[k]
                scalar = _SCALARS.get(type(v))
                if scalar:
                    text = scalar(v)
                elif type(v) in _EMPTY and not v:
                    text = _EMPTY[type(v)]
                else:
                    text = dump_json(v, inner)
                parts += encode_basestring_ascii(k), ": ", text, sep
        except TypeError:
            # json.dumps writes int, float, bool and None keys as
            # strings, and refuses keys it cannot sort or write and
            # values it cannot write
            return json.dumps(value, indent=2, sort_keys=True).replace(
                "\n", pad)
        parts[-1] = pad + "}"
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        sep = "," + inner
        kinds = set(map(type, value))
        # string lists: the types first, as a deeper list is unhashable
        if kinds <= {list, tuple} and _plain_strings(value):
            head, mid, tail = f'[{inner}  "', f'",{inner}  "', f'"{inner}]'
            # a generator: `join` frees the rows before the text is wrapped
            rows = (f"{head}{mid.join(v)}{tail}" if v else "[]" for v in value)
            return f"[{inner}{sep.join(rows)}{pad}]"
        if len(kinds) == 1:
            (kind,) = kinds
            if kind is str and _plain("".join(value)):
                return '[%s"%s"%s]' % (
                    inner, ('"' + sep + '"').join(value), pad)
            scalar = _SCALARS.get(kind)
            if scalar:
                return "[%s%s%s]" % (inner, sep.join(map(scalar, value)), pad)
        parts = ["[", inner]
        for v in value:
            scalar = _SCALARS.get(type(v))
            if scalar:
                parts += scalar(v), sep
            elif type(v) in _EMPTY and not v:
                parts += _EMPTY[type(v)], sep
            else:
                parts += dump_json(v, inner), sep
        parts[-1] = pad + "]"
        return "".join(parts)
    scalar = _SCALARS.get(type(value))
    if scalar:
        return scalar(value)
    return json.dumps(value)
