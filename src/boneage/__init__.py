"""Bone-age estimation from elbow radiographs, trained on procedural phantoms.

Four stages share one small tensor/autodiff engine: deterministic
dataset augmentation, bone segmentation, joint localization, and
reference-class age estimation. See the README for the CLI surface.
"""
