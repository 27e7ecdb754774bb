"""Exception types shared across the package, and the checks that turn
malformed JSON input into BadParams."""

import json


class ZipconeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ZipconeError):
    pass


class InvalidCartan(ZipconeError):
    pass


class NonFiniteSystem(ZipconeError):
    pass


class NotAnAutomorphism(ZipconeError):
    pass


class DoesNotPreserveBase(ZipconeError):
    pass


class CapExceeded(ZipconeError):
    def __init__(self, message, partial_count=None):
        super().__init__(message)
        self.partial_count = partial_count


class DimensionTooLarge(ZipconeError):
    pass


class SingularMap(ZipconeError):
    pass


class InvalidR(ZipconeError):
    pass


class RankTooLarge(ZipconeError):
    pass


class UnknownPreset(ZipconeError):
    pass


class BadParams(ZipconeError):
    pass


class InternalError(ZipconeError):
    pass


def json_integer(value, where: str) -> int:
    if type(value) is not int:  # bool is an int subclass; 2.0 is not an integer
        text = json.dumps(value, default=repr)
        raise BadParams(f"{where} must be a JSON integer, not {text}")
    return value


def json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise BadParams(f"{where} must be a list, not {json.dumps(value)}")
    return value


def json_integers(value, where: str) -> tuple:
    return tuple(json_integer(x, f"{where}[{i}]") for i, x in enumerate(json_list(value, where)))


def json_vectors(value, where: str) -> list:
    return [json_integers(v, f"{where}[{i}]") for i, v in enumerate(json_list(value, where))]
