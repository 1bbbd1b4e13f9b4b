"""Experiment harness: one runner per evaluation table
(Table I, Exp-1 … Exp-7), each returning a tidy pandas DataFrame."""
