"""Budget settings shared by the command line and embedding callers."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InputError

TRUNCATION_DEPTH_LIMIT = 12  # the deepest truncation reachability enumerates


@dataclass(frozen=True)
class AnalysisConfig:
    """The one home of every analysis budget and its default.

    cutoff bounds eq-level games, omega_budget bounds bisimulation-relation
    search (0 turns it off), truncation_max bounds the positive side's depth
    ladder below ``TRUNCATION_DEPTH_LIMIT`` (0 turns it off), path_budget
    bounds loop-path exploration and the total length of a normed witness's
    emptying sequences, candidate_budget the number of witnesses tried, and
    region_cap the states explored around a pump limit; the pump argument's
    relation searches get the derived ``pump_omega_budget``.  Every layer
    reads it off the analysis' ``PdaOracle``, and a witness document stores
    the cutoff, omega_budget and region_cap its verdict was decided under.
    """

    cutoff: int = 64
    omega_budget: int = 512
    truncation_max: int = 8
    path_budget: int = 10000
    candidate_budget: int = 200
    region_cap: int = 2048

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            # 0 turns the relation search or the positive search off
            least = 0 if field.name in ("omega_budget", "truncation_max") else 1
            # type() rather than isinstance(): True and False are ints too
            if type(value) is not int or value < least:
                raise InputError(
                    "%s must be an integer of at least %d, got %r" % (field.name, least, value)
                )
        if self.truncation_max >= TRUNCATION_DEPTH_LIMIT:
            raise InputError(
                "truncation_max is capped at %d, got %d"
                % (TRUNCATION_DEPTH_LIMIT - 1, self.truncation_max)
            )

    @property
    def pump_omega_budget(self):
        """The relation-search budget of the pump argument's level bound."""
        return max(64, self.omega_budget // 2)
