import loc

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os


class A:
    """Class docstring."""

    def f(self):
        """Function docstring

        with a blank line inside."""
        x = """not a docstring"""  # trailing comment
        return x
'''


def test_count_fixture():
    assert loc.count(SOURCE) == {"code": 5, "docstring": 6, "comment": 1, "blank": 4}


def test_count_empty_module():
    assert loc.count("") == {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
