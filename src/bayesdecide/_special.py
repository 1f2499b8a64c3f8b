"""``scipy.special``, imported on first use.

Importing ``scipy.special`` costs more than the rest of the package's
import, yet only some decisions call a special function: a parametric
distribution function or quantile, the Gamma and Beta closed forms, the
tanh-sinh rule's nodes, a LINEX log-MGF on draws, a calibration from a
tail mass.  Modules write ``_special.ndtr(x)``; the first such call pays
for importing ``scipy.special``, and each name read is then stored in this
module's globals, so later reads are plain attribute lookups.
"""


def __getattr__(name):  # PEP 562: called only for names not yet stored
    import scipy.special

    value = getattr(scipy.special, name)
    globals()[name] = value
    return value
