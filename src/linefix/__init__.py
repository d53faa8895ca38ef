"""Line-addressed code-fix tooling.

Parse, apply, and derive line-addressed patches; build instruction prompts;
ingest and leak-refine fix corpora; drive completion backends; and score
exact-match repair performance.
"""
