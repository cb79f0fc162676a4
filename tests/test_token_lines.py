"""The line counter of ``tests/token_lines.py`` on a small source."""

from token_lines import token_lines

SOURCE = '''"""A module docstring
over two lines."""
# a comment line

x = (1 +
     2)  # a trailing comment


def f():
    """A function's docstring."""
    return x
'''


def test_token_lines_leave_out_docstrings_comments_and_blank_lines():
    # the two-line statement, ``def f():`` and ``return x``
    assert token_lines(SOURCE) == 4
