"""
Desk-scale numerical laboratory for logarithmic (Norlund-type) means of
quadratical partial sums of double Fourier series: grid Fourier analysis,
the mean's kernel in direct and closed form, Orlicz/Luxemburg machinery,
and the extremal-bump divergence experiments.
"""
