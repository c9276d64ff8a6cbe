"""Substitutions, matching, and unification for flat Datalog terms.

A substitution maps :class:`Variable` to :class:`Constant` (the engine is
ground-bottom-up, so variables never bind to variables during evaluation;
full unification is provided for the rewriting passes, where terms on both
sides may contain variables).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .atom import Atom
from .term import Constant, Term, Variable

Substitution = Dict[Variable, Term]


def match_tuple(
    terms: Tuple[Term, ...], values: Tuple, theta: Substitution
) -> Optional[Substitution]:
    """Match atom argument terms against a ground database tuple.

    ``values`` holds raw Python values (the storage representation).
    Returns the extended substitution or None when matching fails.  The
    input substitution is never mutated.
    """
    extension: Optional[Substitution] = None
    for term, value in zip(terms, values):
        if term.is_constant:
            if term.value != value:
                return None
            continue
        bound = theta.get(term)
        if bound is None and extension is not None:
            bound = extension.get(term)
        if bound is not None:
            if bound.value != value:
                return None
            continue
        if extension is None:
            extension = {}
        extension[term] = Constant(value)
    if extension is None:
        return theta
    merged = dict(theta)
    merged.update(extension)
    return merged


def lookup_pattern(terms: Tuple[Term, ...], theta: Substitution) -> Tuple:
    """Build a :meth:`Relation.lookup` pattern from atom terms under
    ``theta``: bound positions carry raw values, free positions None."""
    pattern = []
    for term in terms:
        if term.is_constant:
            pattern.append(term.value)
            continue
        bound = theta.get(term)
        pattern.append(bound.value if bound is not None else None)
    return tuple(pattern)


def ground_atom_tuple(atom: Atom, theta: Substitution) -> Tuple:
    """Instantiate an atom's arguments to a raw value tuple.

    Raises ValueError when a variable remains unbound — that would mean an
    unsafe rule escaped validation.
    """
    values = []
    for term in atom.terms:
        if term.is_constant:
            values.append(term.value)
            continue
        bound = theta.get(term)
        if bound is None:
            raise ValueError(f"unbound variable {term} instantiating {atom}")
        values.append(bound.value)
    return tuple(values)


def unify_terms(
    left: Tuple[Term, ...], right: Tuple[Term, ...], theta: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Full (flat) unification of two term tuples; used by rewrites.

    Variables may bind to variables or constants.  Returns the most
    general unifier extending ``theta``, or None.
    """
    if len(left) != len(right):
        return None
    theta = dict(theta) if theta else {}

    def resolve(term: Term) -> Term:
        while term.is_variable and term in theta:
            term = theta[term]
        return term

    for l_term, r_term in zip(left, right):
        l_resolved = resolve(l_term)
        r_resolved = resolve(r_term)
        if l_resolved == r_resolved:
            continue
        if l_resolved.is_variable:
            theta[l_resolved] = r_resolved
        elif r_resolved.is_variable:
            theta[r_resolved] = l_resolved
        else:
            return None
    return theta


def unify_atoms(
    left: Atom, right: Atom, theta: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Unify two atoms (same predicate and arity required)."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    return unify_terms(left.terms, right.terms, theta)
