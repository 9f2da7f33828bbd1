"""RL012 fixture library: used, dead, private and test-only symbols."""


def used_helper():
    return 42


def dead_helper():
    return 43


def _private_scratch():
    return 44


def tests_only_helper():
    return 45
