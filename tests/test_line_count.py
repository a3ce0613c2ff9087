"""`tests/line_count.py` counts what a simplicity change reports."""

from line_count import counts

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os


class A:
    """Class docstring."""

    def f(self):  # a trailing comment keeps its line
        text = """a string that is not a docstring
spans two lines"""
        return (text,
                os.sep)
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # Code: import, class, def, the two string lines, the two return lines.
    assert counts(SOURCE) == (15, 7)

