"""Incremental reading of one large JSON document, a value at a time.

:class:`JSONStream` walks the JSON document of a text file without loading
all of it.  The caller steps through objects (:meth:`JSONStream.keys`) and
arrays (:meth:`JSONStream.items`) and decodes the values it wants whole
with :meth:`JSONStream.value`, which runs ``json``'s own decoder over a
window of the file.  Only that window is held: the unread part of one read
chunk plus the value being decoded.  A snapshot whose sketches hold
megabytes of counters is therefore restored one counter at a time.

Malformed text raises the :class:`json.JSONDecodeError` that ``json.load``
of the running Python raises for the same document, with positions counted
over the whole file.  A value that does not parse is re-read with
more of the file until the file ends, so a corrupt document can still cost
its size in memory before the error is raised, as ``json.load`` does.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from typing import Any, TextIO

__all__ = ["JSONStream"]

_WHITESPACE = re.compile(r"[ \t\n\r]*")

#: Characters read from the file at a time (more when one value is larger).
_CHUNK = 1 << 14


def _trailing_comma(document: str) -> tuple[str, bool]:
    """What ``json`` says of the comma before ``document``'s closing bracket.

    The message, and whether it points at the comma rather than at the
    bracket: Python 3.13 reports an illegal trailing comma where earlier
    versions expect another member.
    """
    try:
        json.loads(document)
    except json.JSONDecodeError as exc:
        return exc.msg, exc.pos == document.index(",")
    raise AssertionError("%r parsed" % (document,))


_TRAILING_COMMA = {"}": _trailing_comma('{"":0,}'), "]": _trailing_comma("[0,]")}


class _StreamDecodeError(json.JSONDecodeError):
    """A :class:`json.JSONDecodeError` located in a file, not in one string."""

    def __init__(self, msg: str, pos: int, lineno: int, colno: int) -> None:
        ValueError.__init__(self, "%s: line %d column %d (char %d)" % (msg, lineno, colno, pos))
        self.msg = msg
        self.doc = ""
        self.pos = pos
        self.lineno = lineno
        self.colno = colno


class JSONStream:
    """A cursor over the JSON document of ``handle``.

    Every method first skips whitespace.  :meth:`keys` and :meth:`items`
    are generators: after each key or element they yield, the caller must
    consume exactly that one value (with :meth:`value`, or by stepping into
    it) before asking for the next.
    """

    def __init__(self, handle: TextIO, chunk: int = _CHUNK) -> None:
        self._handle = handle
        self._chunk = chunk
        self._decoder = json.JSONDecoder()
        self._buffer = ""
        self._pos = 0
        #: Characters of the file before ``_buffer``, the newlines among
        #: them, and the file position of the last of those newlines.
        self._offset = 0
        self._lines = 0
        self._last_newline = -1
        self._eof = False

    # ----------------------------------------------------------- the window
    def _fill(self) -> bool:
        """Drop the consumed text and read more; ``False`` at the end of the file."""
        if self._eof:
            return False
        buffer, pos = self._buffer, self._pos
        # At least double a window that holds one unfinished value, so a
        # value many chunks long is re-parsed a logarithmic number of times.
        text = self._handle.read(max(self._chunk, len(buffer) - pos))
        if not text:
            self._eof = True
            return False
        newlines = buffer.count("\n", 0, pos)
        if newlines:
            self._lines += newlines
            self._last_newline = self._offset + buffer.rindex("\n", 0, pos)
        self._offset += pos
        self._buffer, self._pos = buffer[pos:] + text, 0
        return True

    def _error(self, msg: str, index: int) -> json.JSONDecodeError:
        """The error ``json`` reports at ``index`` of the window, located in the file."""
        pos = self._offset + index
        newline = self._buffer.rfind("\n", 0, index)
        lineno = self._lines + self._buffer.count("\n", 0, index) + 1
        last_newline = self._offset + newline if newline >= 0 else self._last_newline
        return _StreamDecodeError(msg, pos, lineno, pos - last_newline)

    def _next(self, start: int) -> int:
        """Index of the first non-whitespace character from ``start`` on.

        ``len(self._buffer)`` at the end of the file.  Reading more drops
        only the text before the cursor, so ``start`` and the result are
        indexes of the window as it is on return.
        """
        while True:
            match = _WHITESPACE.match(self._buffer, start)
            assert match is not None  # the pattern matches the empty string
            index = match.end()
            if index < len(self._buffer):
                return index
            cursor = self._pos
            if not self._fill():
                return index
            start = index - cursor

    def peek(self) -> str:
        """The next non-whitespace character, or ``""`` at the end of the file."""
        self._pos = self._next(self._pos)
        return self._buffer[self._pos : self._pos + 1]

    def _after_comma(self, closer: str) -> str:
        """Step past the comma at the cursor; the character after it.

        A comma right before ``closer`` raises what ``json`` raises there.
        """
        index = self._next(self._pos + 1)
        char = self._buffer[index : index + 1]
        if char == closer:
            msg, at_comma = _TRAILING_COMMA[closer]
            raise self._error(msg, self._pos if at_comma else index)
        self._pos = index
        return char

    # -------------------------------------------------------------- values
    def value(self) -> Any:
        """Decode the next whole value."""
        self.peek()
        while True:
            try:
                value, end = self._decoder.raw_decode(self._buffer, self._pos)
            except json.JSONDecodeError as exc:
                if self._fill():
                    continue
                raise self._error(exc.msg, exc.pos) from None
            # A value ending at the window's edge may go on: a number cut
            # after "1", "1." or "1e" decodes as the shorter number.
            if end + 2 >= len(self._buffer) and self._fill():
                continue
            self._pos = end
            return value

    def keys(self) -> Iterator[str]:
        """Step through the object at the cursor, yielding each key in turn."""
        if self.peek() != "{":
            raise self._error("Expecting value", self._pos)
        self._pos += 1
        char = self.peek()
        if char == "}":
            self._pos += 1
            return
        while True:
            if char != '"':
                raise self._error("Expecting property name enclosed in double quotes", self._pos)
            key = self.value()
            if self.peek() != ":":
                raise self._error("Expecting ':' delimiter", self._pos)
            self._pos += 1
            yield key
            char = self.peek()
            if char == "}":
                self._pos += 1
                return
            if char != ",":
                raise self._error("Expecting ',' delimiter", self._pos)
            char = self._after_comma("}")

    def items(self) -> Iterator[None]:
        """Step through the array at the cursor, yielding once per element."""
        if self.peek() != "[":
            raise self._error("Expecting value", self._pos)
        self._pos += 1
        if self.peek() == "]":
            self._pos += 1
            return
        while True:
            yield None
            char = self.peek()
            if char == "]":
                self._pos += 1
                return
            if char != ",":
                raise self._error("Expecting ',' delimiter", self._pos)
            self._after_comma("]")

    def end(self) -> None:
        """Require that nothing but whitespace follows the document."""
        if self.peek():
            raise self._error("Extra data", self._pos)
