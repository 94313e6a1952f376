"""User-pointer (taint) checker (``user_pointer.metal``), after the
Oakland'02 companion paper.

Kernel code must never dereference a pointer that came from user space;
it must go through copy_from_user/copy_to_user.  Errors are annotated
SECURITY, the highest ranking class (§9).
"""

from repro.checkers.metal import load


def user_pointer_checker():
    return load("user_pointer.metal")
