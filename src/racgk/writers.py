"""Report writers to an output stream: `render_text` for the text report
and `dump_json`, `json.dumps(value, indent=2, sort_keys=True)` byte for
byte, for the JSON report.

Both render every value outside a list longer than `CHUNK` before the
first write, so such a value that cannot be rendered leaves the stream
as it was.  A longer list at any depth is written `CHUNK` items at a
time, and a longer `Rows` a group at a time, each group's rows joined
in one text: a relation list's n vertex rows in one write, then each
vertex's non-edge rows, at most n - 1, in one write each, and never
more than `CHUNK` rows a write.  So neither the report's whole text nor
a list of its rows' texts is held; a value in it that cannot be
rendered leaves the report written up to its chunk, as a stream that
fails part-way does."""

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from types import GeneratorType

# the items of a long list rendered per write: K20's `ktheory` report
# (2^20 clique rows) wrote within 5 % of one time at chunks of 256 to
# 4096 (in process, 2-core box, best of 3), and at 256 the glued-64
# `ktheory` report of the benchmark's ring-lattice deck peaked lowest
# under tracemalloc, 338 KB against 368 at 512 and 440 at 1024
CHUNK = 256


# a character no plain label holds: the second place of a row's label
# while `Rows.quoted` joins a group whose rows have three parts
MARK = "\0"


class Rows:
    """A list of str made on demand: for each `(parts, mask)` that
    `groups()` yields, the row `t.join(parts)` for t the labels at the
    set bits of `mask`, in order.  `len` is `count`.  A group's parts are
    two or three str of printable ASCII without `"` or backslash, so
    whether the JSON quoting leaves every row alone is decided once, from
    the labels."""

    __slots__ = ("count", "groups", "labels", "plain")

    def __init__(self, count, groups, labels):
        self.count, self.groups, self.labels = count, groups, labels
        self.plain = _plain("".join(labels))

    def __len__(self):
        return self.count

    def __iter__(self):
        for parts, mask in self.groups():
            for t in _picked(self.labels, mask):
                yield t.join(parts)

    def quoted(self, sep):
        """The rows' JSON strings joined by `sep`, as texts of at most
        `CHUNK` rows of one group each, every text but the first led by
        `sep`.  Plain labels take one join a text, the glue between two
        labels the parts around them; three parts join the pieces
        `t MARK t`, made once, and one `replace` puts the middle part in
        place of MARK.  Other labels are quoted a row at a time."""
        labels, plain, chunk = self.labels, self.plain, CHUNK
        quote, lead, pieces = '"' + sep + '"', "", None
        for parts, mask in self.groups():
            if not mask:
                continue
            head, tail, twice = parts[0], parts[-1], len(parts) == 3
            if plain and twice and pieces is None:
                pieces = [t + MARK + t for t in labels]
            items = _picked(pieces if plain and twice else labels, mask)
            join = (tail + quote + head).join
            for cut in (items,) if len(items) <= chunk else (
                    items[i:i + chunk] for i in range(0, len(items), chunk)):
                if not plain:
                    yield lead + sep.join([encode_basestring_ascii(
                        t.join(parts)) for t in cut])
                elif twice:
                    yield ('%s"%s%s%s"' % (lead, head, join(cut),
                                           tail)).replace(MARK, parts[1])
                else:
                    yield '%s"%s%s%s"' % (lead, head, join(cut), tail)
                lead = sep


def _picked(seq, mask):
    """The items of `seq` at the set bits of `mask`: the span from its
    lowest to its highest set bit, a slice between each two clear bits
    within it."""
    if not mask:
        return []
    start, stop = (mask & -mask).bit_length() - 1, mask.bit_length()
    gaps = ~mask & (1 << stop) - (1 << start)
    out = []
    while gaps:
        bit = gaps & -gaps
        gaps ^= bit
        j = bit.bit_length() - 1
        out += seq[start:j]
        start = j + 1
    out += seq[start:stop]
    return out


def render_text(report, out):
    """`key: value` or `- value` lines; a nested container goes below.
    A list of lists of str that `_plain_strings` passes, such as the
    clique basis, is written a row a line by one join each, as
    `json.dumps` writes the row; any other list without a container in
    it, a `Rows` among them, on its key's line as `json.dumps` writes it."""
    parts = []
    _text(report, "", parts)
    for piece in _pieces(parts):
        out.write(piece)


def dump_json(value, out):
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte.
    Where `indent` is set, the standard library makes one Python call
    per value; here a call is made only for a nested, non-empty
    container.  A dict value or list item whose exact type is str, int,
    bool or None is written in place, by the C quoting, `int.__repr__`
    or its JSON literal, and so is an empty list, tuple or dict.  A list
    or tuple of one such type is one join over that writer.  A list of
    str whose joined text the C quoting leaves alone (printable ASCII
    with no `"` or backslash) is quoted by the join itself, and so is a
    list of str lists, such as the clique basis, that `_plain_strings`
    passes, and a plain `Rows`."""
    text = _json(value, "\n")
    for piece in _pieces([text] if type(text) is str else text):
        out.write(piece)


def _pieces(parts):
    """The text of `parts`, rendered text and the generators that write
    the long lists: each run of text joined, then each generator's
    chunks as it makes them."""
    start = 0
    for i, part in enumerate(parts):
        if type(part) is GeneratorType:
            yield "".join(parts[start:i])
            yield from part
            start = i + 1
    yield "".join(parts[start:])


def _chunks(rows):
    """`rows` as lists of `CHUNK` items, the last one shorter."""
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK)):
        yield chunk


def _text(report, pad, parts):
    """The lines of a dict or list at the indent `pad`, onto `parts`."""
    if isinstance(report, dict):
        items = (("%s%s:" % (pad, k), v) for k, v in report.items())
    elif len(report) > CHUNK:
        parts.append(_text_chunks(report, pad))
        return
    elif set(map(type, report)) <= {list} and _plain_strings(report):
        parts.append("".join(['%s- ["%s"]\n' % (pad, '", "'.join(row))
                              if row else pad + "- []\n" for row in report]))
        return
    else:
        items = ((pad + "-", v) for v in report)
    for head, v in items:
        if isinstance(v, dict) and v or isinstance(v, list) and any(
                isinstance(x, (dict, list)) for x in v):
            parts.append(head + "\n")
            _text(v, pad + "  ", parts)
        elif (type(v) is Rows or isinstance(v, list)) and len(v) > CHUNK:
            parts.append(_flat_chunks(head, v))
        elif type(v) is Rows:
            parts.append("%s [%s]\n" % (head, "".join(v.quoted(", "))))
        else:
            parts.append("%s %s\n" % (head, _flat(v)))


def _text_chunks(report, pad):
    """A long list's lines, `CHUNK` items at a time, each chunk as `_text`
    writes a list of its items."""
    for chunk in _chunks(report):
        parts = []
        _text(chunk, pad, parts)
        yield from _pieces(parts)


def _flat_chunks(head, rows):
    """`head [...]`, the line of a long list of scalars as `json.dumps`
    writes it, `CHUNK` items at a time, a `Rows` by its `quoted` texts."""
    yield head + " ["
    if type(rows) is Rows:
        yield from rows.quoted(", ")
    else:
        lead = ""
        for chunk in _chunks(rows):
            yield lead + json.dumps(chunk)[1:-1]
            lead = ", "
    yield "]\n"


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


def _json(value, pad):
    """The JSON of `value` at the nesting level whose line break and
    indent are `pad`: its text, or, where a list longer than `CHUNK`
    lies within, a list of texts and the generators that write the long
    lists, which for a list begins with "[" and `pad + "  "` and ends
    with `pad + "]"`."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        sep = "," + inner
        parts = ["{", inner]
        lazy = False
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
                    text = _json(v, inner)
                    if type(text) is not str:
                        lazy = True
                        parts += encode_basestring_ascii(k), ": "
                        parts += text
                        parts.append(sep)
                        continue
                parts += encode_basestring_ascii(k), ": ", text, sep
        except TypeError:
            # json.dumps writes int, float, bool and None keys as
            # strings, and refuses keys it cannot sort or write and
            # values it cannot write
            return json.dumps(value, indent=2, sort_keys=True).replace(
                "\n", pad)
        parts[-1] = pad + "}"
        return parts if lazy else "".join(parts)
    if isinstance(value, (list, tuple)) or type(value) is Rows:
        if not value:
            return "[]"
        if len(value) > CHUNK:
            return [_json_chunks(value, pad)]
        inner = pad + "  "
        sep = "," + inner
        if type(value) is Rows:
            return "[%s%s%s]" % (inner, "".join(value.quoted(sep)), pad)
        kinds = set(map(type, value))
        # string lists: the types first, as a deeper list is unhashable
        if kinds <= {list, tuple} and _plain_strings(value):
            head, mid, tail = f'[{inner}  "', f'",{inner}  "', f'"{inner}]'
            return "[%s%s%s]" % (inner, sep.join([
                f"{head}{mid.join(v)}{tail}" if v else "[]" for v in value]),
                pad)
        if len(kinds) == 1:
            (kind,) = kinds
            if kind is str and _plain("".join(value)):
                return '[%s"%s"%s]' % (inner, ('"' + sep + '"').join(value),
                                       pad)
            scalar = _SCALARS.get(kind)
            if scalar:
                return "[%s%s%s]" % (inner, sep.join(map(scalar, value)), pad)
        parts = ["[", inner]
        lazy = False
        for v in value:
            scalar = _SCALARS.get(type(v))
            if scalar:
                parts += scalar(v), sep
            elif type(v) in _EMPTY and not v:
                parts += _EMPTY[type(v)], sep
            else:
                text = _json(v, inner)
                if type(text) is str:
                    parts += text, sep
                else:
                    lazy = True
                    parts += text
                    parts.append(sep)
        parts[-1] = pad + "]"
        return parts if lazy else "".join(parts)
    scalar = _SCALARS.get(type(value))
    return scalar(value) if scalar else json.dumps(value)


def _json_chunks(value, pad):
    """A long list's JSON, `CHUNK` items at a time, each chunk as `_json`
    writes a list of its items but for the brackets; a `Rows` by its
    `quoted` texts."""
    sep = ",%s  " % pad
    lead = "[%s  " % pad
    if type(value) is Rows:
        yield lead
        yield from value.quoted(sep)
        yield pad + "]"
        return
    for chunk in _chunks(value):
        if type(text := _json(chunk, pad)) is str:
            # but for its brackets, "[" and `pad + "  "`, and `pad + "]"`
            yield lead + text[len(pad) + 3:-len(pad) - 1]
        else:
            text[:2] = [lead]
            text.pop()
            yield from _pieces(text)
        lead = sep
    yield pad + "]"
