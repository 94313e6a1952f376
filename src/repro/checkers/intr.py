"""Interrupt-state checker (``intr.metal``): a *global-state* machine.

Global state values "capture a program-wide property (e.g., 'interrupts
are disabled')" (§2.1).  This checker tracks cli()/sti() and warns on
double disables, stray enables, and paths that end with interrupts off.
"""

from repro.checkers.metal import load


def interrupt_checker():
    return load("intr.metal")
