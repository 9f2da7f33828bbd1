"""RL012 fixture: a marked oracle keeps the class it builds reachable."""


class ReferenceModel:
    """Referenced only by the oracle below."""


def build_reference():  # repro-lint: disable=RL012 -- oracle: a cross-check test
    return ReferenceModel()
