"""Exception hierarchy for the chiefblocks library."""


class ChiefblocksError(Exception):
    """Base class for all library errors."""


class CapError(ChiefblocksError):
    """Base for resource-cap violations (maps to CLI exit code 3)."""


class CapExceeded(CapError):
    """A group construction grew past the configured element cap."""


class NodeCapExceeded(CapError):
    """A normal-subgroup lattice grew past the configured node cap."""


class WorkCapExceeded(CapError):
    """An analysis stage would make more elementary tests than its cap."""


class SearchCapExceeded(CapError):
    """An isomorphism search exceeded its candidate budget."""


class InvalidPermutation(ChiefblocksError):
    """A supplied generator is not a bijection on its domain."""


class ActionNotAutomorphism(ChiefblocksError):
    """A semidirect-product action table is not an automorphism of the base."""


class ActionNotHomomorphism(ChiefblocksError):
    """A semidirect-product action is not multiplicative in the acting group."""


class NotNormal(ChiefblocksError):
    """An operation required a normal subgroup and got a non-normal one."""


class NotNested(ChiefblocksError):
    """Two subgroups were expected to be nested and are not."""


class NotStrictlyNested(NotNested):
    """A factor needs strictly nested subgroups L < K."""


class DifferentParents(ChiefblocksError):
    """Operands live in different ambient groups."""


class NotAssociated(ChiefblocksError):
    """A common compression was requested for non-associated factors."""


class NotAChain(ChiefblocksError):
    """A series of normal subgroups is not an ascending chain from 1 to G."""


class NotChief(ChiefblocksError):
    """A factor was expected to be a chief factor and is not."""


class AbelianFactor(ChiefblocksError):
    """An operation is only defined for non-abelian factors."""


class NotGeneralizedCentral(ChiefblocksError):
    """Parts do not form a generalized central factorization."""


class NotInjective(ChiefblocksError):
    """A homomorphism was expected to be injective."""


class NotSurjective(ChiefblocksError):
    """A homomorphism was expected to be surjective."""


class ImageNotNormal(ChiefblocksError):
    """The image of a compression map is not normal in the codomain."""


class ImageNotFullOnFactor(ChiefblocksError):
    """A subdirect embedding does not meet a coordinate factor in all of it."""


class NotSemisimpleType(ChiefblocksError):
    """An operation requires a group of semisimple type."""


class NotCharacteristicallySimple(ChiefblocksError):
    """An operation requires a characteristically simple group."""


class InternalCheckError(ChiefblocksError):
    """A verified postcondition failed; indicates a bug (CLI exit code 4)."""


class HomomorphismError(ChiefblocksError):
    """A map table fails the homomorphism (or bijectivity) contract."""


# -- CLI-facing -------------------------------------------------------------

class SpecError(ChiefblocksError):
    """Base for group-spec input problems (maps to CLI exit code 2)."""


class ParseError(SpecError):
    """Malformed spec text; carries an optional line/column position."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownName(SpecError):
    """A named group that the tool does not know."""


class BadAction(SpecError):
    """A semidirect-product action in a spec file is malformed."""


class SectionMissing(ChiefblocksError):
    """A DOT emitter was asked for a section the report does not contain."""
