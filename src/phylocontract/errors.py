"""Exception taxonomy shared by all modules.

Every error carries a stable ``code`` (the class name) so the CLI can emit
machine-parseable ``error: CODE: message`` lines.
"""


class PhyloError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- network validation ----------------------------------------------------

class CyclicGraph(PhyloError):
    pass


class MultipleRoots(PhyloError):
    pass


class NoRoot(PhyloError):
    pass


class UnlabeledLeaf(PhyloError):
    pass


class DuplicateLabel(PhyloError):
    pass


class LeafWithInDegreeNot1(PhyloError):
    pass


class UnknownNode(PhyloError):
    pass


# --- edit operations -------------------------------------------------------

class NotAnEdge(PhyloError):
    pass


class InadmissibleContraction(PhyloError):
    """Carries the discovered alternative path, or the leaf violation."""

    def __init__(self, message, alt_path=None):
        super().__init__(message)
        self.alt_path = alt_path


class InadmissibleExpansion(PhyloError):
    pass


class LeafSetMismatch(PhyloError):
    pass


class KeyMismatch(PhyloError):
    pass


class InvalidWitness(PhyloError):
    pass


class InadmissibleStep(PhyloError):
    def __init__(self, index, message):
        super().__init__(f"step {index}: {message}")
        self.index = index


# --- galled structure ------------------------------------------------------

class NotWeaklyGalled(PhyloError):
    pass


class NotATree(PhyloError):
    pass


class Degree2Node(PhyloError):
    pass


# --- budgets and limits -----------------------------------------------------

class SizeCapExceeded(PhyloError):
    pass


class BudgetExhausted(PhyloError):
    pass


class NestingTooDeep(PhyloError):
    """The input nests deeper than the recursive traversals can follow."""


# --- internal self-checks ---------------------------------------------------

class SelfCheckFailed(PhyloError):
    """A result failed the check that guards its correctness (a bug)."""


# --- generators ------------------------------------------------------------

class InvalidParameters(PhyloError):
    pass


class GenerationFailed(PhyloError):
    pass


# --- parsing ---------------------------------------------------------------

class SyntaxError(PhyloError):  # noqa: A001 - deliberate, scoped to this package
    """Parse failure with 1-based line/column of the offending token."""

    def __init__(self, message, line=1, col=1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnresolvedHybridTag(PhyloError):
    pass


class DuplicateHybridDefinition(PhyloError):
    pass
