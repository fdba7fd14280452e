"""The report vocabulary: one way to build a stage, one way to write a record."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

# field values written as they are; checked by exact type, ahead of the rules
_PLAIN = frozenset({float, int, str, bool, type(None)})


@contextmanager
def stage(name, stages=None):
    """Yield a stage dict for the body to fill; time the whole body.

    When the body finishes the dict gets its `timing_s` and, if `stages` is
    given, is appended to it.  A body that raises leaves no stage behind.
    """
    started = time.perf_counter()
    entry = {"name": name}
    yield entry
    entry["timing_s"] = time.perf_counter() - started
    if stages is not None:
        stages.append(entry)


def all_passed(stages):
    """The one verdict over a staged result: every stage passed."""
    return all(entry["passed"] for entry in stages)


def report_value(value):
    """Report form of one value: its own to_dict, an Enum's value, a list."""
    if type(value) in _PLAIN:
        return value
    to_dict = getattr(value, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [report_value(item) for item in value]
    return value


class Record:
    """Base of every report record; subclasses are frozen dataclasses.

    A record's report is `{key: tag}` when the class sets a tag, plus each
    dataclass field in report form.  `definite` says whether the record is
    a settled answer; exit codes read it.
    """

    __slots__ = ()
    key = "verdict"
    tag = None
    definite = True

    def to_dict(self):
        out = {} if self.tag is None else {self.key: self.tag}
        # a dataclass's __match_args__ names its fields in order, cheaper than fields()
        for name in self.__match_args__:
            out[name] = report_value(getattr(self, name))
        return out


@dataclass(frozen=True, slots=True)
class Unknown(Record):
    """An honestly open question, with the reason it stayed open."""

    tag = "unknown"
    definite = False
    reason: str = ""
